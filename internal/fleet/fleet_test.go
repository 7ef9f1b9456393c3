package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/tracking"
	"github.com/dynagg/dynagg/internal/workload"
)

// fixture describes one task mirrored between a fleet and a standalone
// tracking.Service.
type fixture struct {
	id     string
	algo   string
	weight int
	budget int // expected fleet grant == standalone per-round budget
	seed   int64
}

// newEnv builds the deterministic simulated database one task tracks.
func newEnv(t testing.TB, seed int64) *workload.Env {
	t.Helper()
	data := workload.AutosLikeN(seed, 6000, 8)
	env, err := workload.NewEnv(data, 5400, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// churn is the per-round update schedule both sides apply; n is the tick
// (fleet) or upcoming round (standalone) — churn is skipped at 1 so
// round 1 sees the initial database.
func churn(env *workload.Env) func(n int) error {
	return func(n int) error {
		if n == 1 {
			return nil
		}
		if err := env.InsertFromPool(60); err != nil {
			return err
		}
		return env.DeleteFraction(0.004)
	}
}

// target wraps an env in a fleet Target.
func target(env *workload.Env, withChurn bool) Target {
	iface := hiddendb.NewIface(env.Store, 100, nil)
	tgt := Target{
		Schema: iface.Schema(),
		Source: func(g int) tracking.Session { return iface.NewSession(g) },
	}
	if withChurn {
		tgt.PreTick = churn(env)
	}
	return tgt
}

// estimatesJSON renders a view's estimate array byte-comparably.
func estimatesJSON(t *testing.T, v tracking.View) string {
	t.Helper()
	raw, err := json.Marshal(v.Estimates)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// standaloneStream runs one fixture as a plain tracking.Service for
// rounds rounds and returns the per-round estimate JSON stream. svcSeed
// is the estimator seed (a resumed mirror passes the derived one).
func standaloneStream(t *testing.T, f fixture, svcSeed int64, rounds int, ckpt string) []string {
	t.Helper()
	env := newEnv(t, f.seed+1000)
	iface := hiddendb.NewIface(env.Store, 100, nil)
	svc, err := tracking.New(iface.Schema(),
		func(g int) tracking.Session { return iface.NewSession(g) },
		tracking.Config{
			Algorithm:      f.algo,
			Aggregates:     []*agg.Aggregate{agg.CountAll()},
			Budget:         f.budget,
			Seed:           svcSeed,
			Parallelism:    1, // the fleet side uses 4: estimates must not care
			CheckpointPath: ckpt,
			PreRound:       churn(env),
		})
	if err != nil {
		t.Fatal(err)
	}
	var stream []string
	for r := 0; r < rounds; r++ {
		if err := svc.StepOnce(); err != nil {
			t.Fatalf("standalone %s round %d: %v", f.id, r+1, err)
		}
		stream = append(stream, estimatesJSON(t, svc.CurrentView()))
	}
	return stream
}

// fleetManager assembles a manager over per-fixture targets.
func fleetManager(t *testing.T, fixtures []fixture, tickBudget int, dir string) *Manager {
	t.Helper()
	targets := make(map[string]Target, len(fixtures))
	for _, f := range fixtures {
		targets["db-"+f.id] = target(newEnv(t, f.seed+1000), true)
	}
	mgr, err := New(Config{TickBudget: tickBudget, Dir: dir, Targets: targets, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func addFixtures(t *testing.T, mgr *Manager, fixtures []fixture) {
	t.Helper()
	for _, f := range fixtures {
		err := mgr.Add(TaskSpec{
			ID:          f.id,
			Target:      "db-" + f.id,
			Algorithm:   f.algo,
			Weight:      f.weight,
			Seed:        f.seed,
			Parallelism: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetMatchesStandalone is the core determinism guarantee: under
// weighted fair sharing each task's estimate stream is byte-identical
// to a standalone tracking.Service given the same seed and per-round
// budget, for several task counts and weight vectors — and independent
// of the estimator fan-out (fleet tasks run Parallelism 4, standalone
// 1).
func TestFleetMatchesStandalone(t *testing.T) {
	algos := []string{"REISSUE", "RS", "RESTART"}
	cases := []struct {
		name    string
		weights []int
	}{
		{"one", []int{1}},
		{"three-equal", []int{1, 1, 1}},
		{"four-weighted", []int{1, 2, 3, 1}},
	}
	const rounds = 4
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fixtures []fixture
			tickBudget := 0
			for i, w := range tc.weights {
				f := fixture{
					id:     fmt.Sprintf("t%d", i),
					algo:   algos[i%len(algos)],
					weight: w,
					budget: 80 * w,
					seed:   int64(7000 + 13*i),
				}
				fixtures = append(fixtures, f)
				tickBudget += f.budget
			}

			mgr := fleetManager(t, fixtures, tickBudget, "")
			addFixtures(t, mgr, fixtures)
			fleetStreams := make(map[string][]string)
			for r := 0; r < rounds; r++ {
				mgr.TickOnce()
				for _, f := range fixtures {
					ts, ok := mgr.TaskView(f.id)
					if !ok {
						t.Fatalf("task %s missing", f.id)
					}
					if ts.LastError != "" {
						t.Fatalf("task %s tick %d: %s", f.id, r+1, ts.LastError)
					}
					if ts.GrantedLast != f.budget {
						t.Fatalf("task %s granted %d, want %d", f.id, ts.GrantedLast, f.budget)
					}
					fleetStreams[f.id] = append(fleetStreams[f.id], estimatesJSON(t, ts.View))
				}
			}

			for _, f := range fixtures {
				want := standaloneStream(t, f, f.seed, rounds, "")
				got := fleetStreams[f.id]
				for r := range want {
					if got[r] != want[r] {
						t.Errorf("task %s round %d:\nfleet      %s\nstandalone %s",
							f.id, r+1, got[r], want[r])
					}
				}
			}
		})
	}
}

// TestFleetCrashResume kills a persisted fleet mid-run and restarts it
// from the fleet directory: every task must resume from its checkpoint
// (continuing tick counter included) and the subsequent estimates must
// stay byte-identical to a standalone service put through the identical
// crash/resume.
func TestFleetCrashResume(t *testing.T) {
	dir := t.TempDir()
	fixtures := []fixture{
		{id: "a", algo: "REISSUE", weight: 1, budget: 80, seed: 8101},
		{id: "b", algo: "RS", weight: 1, budget: 80, seed: 8202},
	}
	const tickBudget = 160

	mgr1 := fleetManager(t, fixtures, tickBudget, dir)
	addFixtures(t, mgr1, fixtures)
	mgr1.TickOnce()
	mgr1.TickOnce()
	// "Crash": mgr1 is abandoned. A fresh manager over the same dir must
	// restore both tasks and the tick counter from fleet.json and resume
	// each estimator from its checkpoint.
	targets := make(map[string]Target, len(fixtures))
	for _, f := range fixtures {
		targets["db-"+f.id] = target(newEnv(t, f.seed+1000), true)
	}
	mgr2, err := New(Config{TickBudget: tickBudget, Dir: dir, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if got := mgr2.Ticks(); got != 2 {
		t.Fatalf("restored tick counter = %d, want 2", got)
	}
	st := mgr2.Status()
	if st.TaskCount != 2 {
		t.Fatalf("restored %d tasks, want 2", st.TaskCount)
	}
	for _, ts := range st.Tasks {
		if !ts.View.Resumed || ts.View.Round != 2 {
			t.Fatalf("task %s resumed=%v round=%d, want resumed at round 2",
				ts.ID, ts.View.Resumed, ts.View.Round)
		}
	}

	resumedStreams := make(map[string][]string)
	for r := 0; r < 2; r++ {
		mgr2.TickOnce()
		for _, f := range fixtures {
			ts, _ := mgr2.TaskView(f.id)
			if ts.LastError != "" {
				t.Fatalf("task %s after resume: %s", f.id, ts.LastError)
			}
			resumedStreams[f.id] = append(resumedStreams[f.id], estimatesJSON(t, ts.View))
		}
	}

	// Standalone mirror: same crash, same resume, same derived fresh
	// seed (the fleet folds the restore-time tick counter — here 2 —
	// into a resumed task's seed so the consumed RNG stream is never
	// replayed).
	for _, f := range fixtures {
		ckpt := filepath.Join(t.TempDir(), f.id+".ckpt")
		_ = standaloneStream(t, f, f.seed, 2, ckpt) // phase 1, then "crash"
		want := standaloneStream(t, f, resumeSeed(f.seed, 2), 2, ckpt)
		got := resumedStreams[f.id]
		for r := range want {
			if got[r] != want[r] {
				t.Errorf("task %s resumed round %d:\nfleet      %s\nstandalone %s",
					f.id, r+1, got[r], want[r])
			}
		}
	}
}

// TestFleetPauseRedistributes pauses one of two equal-weight tasks and
// expects the whole tick budget to flow to the other, deterministically.
func TestFleetPauseRedistributes(t *testing.T) {
	fixtures := []fixture{
		{id: "a", algo: "REISSUE", weight: 1, budget: 100, seed: 9101},
		{id: "b", algo: "REISSUE", weight: 1, budget: 100, seed: 9202},
	}
	mgr := fleetManager(t, fixtures, 200, "")
	addFixtures(t, mgr, fixtures)

	mgr.TickOnce()
	for _, id := range []string{"a", "b"} {
		ts, _ := mgr.TaskView(id)
		if ts.GrantedLast != 100 {
			t.Fatalf("task %s granted %d, want 100", id, ts.GrantedLast)
		}
	}

	if err := mgr.SetPaused("b", true); err != nil {
		t.Fatal(err)
	}
	mgr.TickOnce()
	a, _ := mgr.TaskView("a")
	b, _ := mgr.TaskView("b")
	if a.GrantedLast != 200 {
		t.Fatalf("runnable task granted %d, want the paused task's share (200)", a.GrantedLast)
	}
	if b.View.Round != 1 {
		t.Fatalf("paused task advanced to round %d", b.View.Round)
	}

	if err := mgr.SetPaused("b", false); err != nil {
		t.Fatal(err)
	}
	mgr.TickOnce()
	a, _ = mgr.TaskView("a")
	b, _ = mgr.TaskView("b")
	if a.GrantedLast != 100 || b.GrantedLast != 100 {
		t.Fatalf("after resume granted a=%d b=%d, want 100/100", a.GrantedLast, b.GrantedLast)
	}
	if b.View.Round != 2 {
		t.Fatalf("resumed task at round %d, want 2", b.View.Round)
	}
}

// TestFleetRestoreSurvivesDeadTask proves one unrestorable task (e.g. a
// dead remote) cannot take the fleet down: the healthy tasks resume, the
// failure is surfaced in Status, the dead spec keeps its place in the
// state file, and the operator can retire it with Remove.
func TestFleetRestoreSurvivesDeadTask(t *testing.T) {
	dir := t.TempDir()
	fixtures := []fixture{{id: "good", algo: "REISSUE", weight: 1, budget: 80, seed: 9401}}
	mgr1 := fleetManager(t, fixtures, 80, dir)
	addFixtures(t, mgr1, fixtures)
	if err := mgr1.Add(TaskSpec{ID: "dead", Remote: "http://127.0.0.1:1/down", Seed: 1}); err == nil {
		// The dial fails immediately; plant the spec via the state file
		// instead so the restore path sees it.
		t.Fatal("dial to a closed port unexpectedly succeeded")
	}
	mgr1.TickOnce()

	// Inject the dead remote task directly into the persisted state.
	raw, err := os.ReadFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Ticks int        `json:"ticks"`
		Tasks []TaskSpec `json:"tasks"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	st.Tasks = append(st.Tasks, TaskSpec{ID: "dead", Remote: "http://127.0.0.1:1/down", Seed: 1})
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fleet.json"), out, 0o644); err != nil {
		t.Fatal(err)
	}

	targets := map[string]Target{"db-good": target(newEnv(t, 9401+1000), true)}
	mgr2, err := New(Config{TickBudget: 80, Dir: dir, Targets: targets})
	if err != nil {
		t.Fatalf("one dead task took the fleet down: %v", err)
	}
	status := mgr2.Status()
	if status.TaskCount != 1 || len(status.FailedTasks) != 1 || status.FailedTasks[0].ID != "dead" {
		t.Fatalf("degraded restore: %+v", status)
	}
	mgr2.TickOnce() // the healthy task keeps tracking
	if ts, _ := mgr2.TaskView("good"); ts.View.Round != 2 {
		t.Fatalf("healthy task at round %d after degraded restore, want 2", ts.View.Round)
	}
	// The dead spec survived the tick's state write…
	raw, err = os.ReadFile(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"dead"`) {
		t.Fatalf("dead task dropped from state file:\n%s", raw)
	}
	// …until the operator retires it.
	if err := mgr2.Remove("dead"); err != nil {
		t.Fatal(err)
	}
	if st := mgr2.Status(); len(st.FailedTasks) != 0 {
		t.Fatalf("failed task not removable: %+v", st.FailedTasks)
	}
}

// TestFleetCountersMonotoneAfterRemove guards the Prometheus contract:
// removing a task must not make the fleet-wide counters decrease.
func TestFleetCountersMonotoneAfterRemove(t *testing.T) {
	fixtures := []fixture{
		{id: "a", algo: "REISSUE", weight: 1, budget: 100, seed: 9301},
		{id: "b", algo: "REISSUE", weight: 1, budget: 100, seed: 9302},
	}
	mgr := fleetManager(t, fixtures, 200, "")
	addFixtures(t, mgr, fixtures)
	mgr.TickOnce()
	before := mgr.Status()
	if before.QueriesTotal == 0 {
		t.Fatal("no queries recorded before removal")
	}
	if err := mgr.Remove("a"); err != nil {
		t.Fatal(err)
	}
	after := mgr.Status()
	if after.QueriesTotal < before.QueriesTotal || after.RoundsTotal < before.RoundsTotal {
		t.Fatalf("counters decreased on removal: queries %d→%d rounds %d→%d",
			before.QueriesTotal, after.QueriesTotal, before.RoundsTotal, after.RoundsTotal)
	}
}

// TestFleetPreTickErrorSurvivesPersist makes sure a target churn error
// reaches /status even when a successful state-file write follows it in
// the same tick.
func TestFleetPreTickErrorSurvivesPersist(t *testing.T) {
	env := newEnv(t, 77)
	tgt := target(env, false)
	tgt.PreTick = func(int) error { return fmt.Errorf("churn backend down") }
	mgr, err := New(Config{
		TickBudget: 100,
		Dir:        t.TempDir(), // persistence on: the save must not clobber the error
		Targets:    map[string]Target{"db": tgt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Add(TaskSpec{ID: "x", Target: "db", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	mgr.TickOnce()
	if st := mgr.Status(); !strings.Contains(st.LastTickError, "churn backend down") {
		t.Fatalf("last_tick_error = %q, want the PreTick error", st.LastTickError)
	}
}

// TestFleetUnlimitedTickRefusesUnboundedTask: at TickBudget 0 a RESTART
// task without max_drills would drill forever; the tick returns, that
// task reports ErrUnboundedRound, and a capped task completes its round.
func TestFleetUnlimitedTickRefusesUnboundedTask(t *testing.T) {
	mgr, err := New(Config{Targets: map[string]Target{"db": target(newEnv(t, 91), false)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []TaskSpec{
		{ID: "capped", Target: "db", Algorithm: "RESTART", Seed: 1, MaxDrills: 64},
		{ID: "open", Target: "db", Algorithm: "RESTART", Seed: 2},
	} {
		if err := mgr.Add(spec); err != nil {
			t.Fatal(err)
		}
	}
	mgr.TickOnce()
	for _, ts := range mgr.Status().Tasks {
		switch ts.ID {
		case "open":
			if !strings.Contains(ts.LastError, estimator.ErrUnboundedRound.Error()) || ts.View.Round != 0 {
				t.Errorf("open task: round %d, last_error %q; want round 0 and ErrUnboundedRound", ts.View.Round, ts.LastError)
			}
		case "capped":
			if ts.LastError != "" || ts.View.Round != 1 || ts.View.Drills != 64 {
				t.Errorf("capped task: round %d, %d drills, last_error %q; want round 1, 64 drills, no error", ts.View.Round, ts.View.Drills, ts.LastError)
			}
		}
	}
}

// TestFleetValidation exercises spec validation and target resolution.
func TestFleetValidation(t *testing.T) {
	env := newEnv(t, 42)
	mgr, err := New(Config{Targets: map[string]Target{"db": target(env, false)}})
	if err != nil {
		t.Fatal(err)
	}
	bad := []TaskSpec{
		{ID: "no/slashes"},
		{ID: "x", Target: "db", Remote: "http://both"},
		{ID: "x", Target: "nope"},
		{ID: "x", Target: "db", Algorithm: "MAGIC"},
		{ID: "x", Target: "db", Weight: -1},
		{ID: "x", Target: "db", Weight: 1 << 62},
		{ID: "x", Target: "db", MaxBudget: -1},
		{ID: "x", Target: "db", Aggregates: []AggregateSpec{{Kind: "MEDIAN"}}},
		{ID: "x", Target: "db", Aggregates: []AggregateSpec{{Where: []PredSpec{{Attr: 0}, {Attr: 0}}}}},
		{ID: "x", Target: "db", Aggregates: []AggregateSpec{{Where: []PredSpec{{Attr: 99}}}}},
	}
	for i, spec := range bad {
		if err := mgr.Add(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	// Single configured target: name may be omitted.
	if err := mgr.Add(TaskSpec{ID: "ok", Seed: 1}); err != nil {
		t.Fatalf("implicit single target rejected: %v", err)
	}
	if err := mgr.Add(TaskSpec{ID: "ok", Target: "db"}); err == nil {
		t.Error("duplicate task id accepted")
	}
}

// TestFleetStateRepeatedID: a state file that lists one ID twice is
// refused by name. Restoring it would run the first spec and persist the
// second in its place.
func TestFleetStateRepeatedID(t *testing.T) {
	dir := t.TempDir()
	state := `{"ticks": 1, "tasks": [
		{"id": "a", "target": "db", "algorithm": "RS", "weight": 1, "seed": 1},
		{"id": "a", "target": "db", "algorithm": "REISSUE", "weight": 5, "seed": 1}]}`
	if err := os.WriteFile(filepath.Join(dir, "fleet.json"), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{TickBudget: 100, Dir: dir, Targets: map[string]Target{"db": target(newEnv(t, 61), false)}})
	if err == nil {
		t.Fatal("state file with a repeated task ID accepted")
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("error %q does not name the repeated ID", err)
	}
}

// TestFleetRunMaxTicks: Run stops by itself after MaxTicks ticks and
// refuses to start without an Interval.
func TestFleetRunMaxTicks(t *testing.T) {
	targets := map[string]Target{"db": target(newEnv(t, 71), true)}
	mgr, err := New(Config{TickBudget: 100, Interval: time.Millisecond, MaxTicks: 3, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Add(TaskSpec{ID: "a", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- mgr.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not stop after MaxTicks")
	}
	if mgr.Ticks() != 3 || mgr.ProcessTicks() != 3 {
		t.Fatalf("ticks = %d, process ticks = %d, want 3 and 3", mgr.Ticks(), mgr.ProcessTicks())
	}
	if ts, _ := mgr.TaskView("a"); ts.View.Round != 3 {
		t.Fatalf("task at round %d after 3 ticks", ts.View.Round)
	}

	idle, err := New(Config{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Run(context.Background()); err == nil {
		t.Error("Run without Interval accepted")
	}
}

// FuzzFleetState feeds arbitrary bytes to New as a fleet directory's
// fleet.json. Either New refuses them, or the restored fleet survives a
// tick with a positive tick count and a Status, lists each task ID once
// across its tasks and failed tasks, and writes a state file that a
// second New accepts.
// Inputs naming a remote are skipped so that no input dials out.
func FuzzFleetState(f *testing.F) {
	targets := map[string]Target{"db": target(newEnv(f, 81), false)}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var st stateFile
		if json.Unmarshal(raw, &st) == nil {
			if len(st.Tasks) > 8 {
				t.Skip("more tasks than one input should step")
			}
			for _, spec := range st.Tasks {
				if spec.Remote != "" {
					t.Skip("remote task")
				}
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fleet.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := Config{TickBudget: 60, Dir: dir, Targets: targets}
		mgr, err := New(cfg)
		if err != nil {
			return
		}
		mgr.TickOnce()
		if n := mgr.Ticks(); n < 1 {
			t.Fatalf("Ticks() = %d after one tick", n)
		}
		status := mgr.Status()
		seen := make(map[string]bool)
		for _, ts := range status.Tasks {
			if seen[ts.ID] {
				t.Fatalf("task %q listed twice: %+v", ts.ID, status)
			}
			seen[ts.ID] = true
		}
		for _, ft := range status.FailedTasks {
			if seen[ft.ID] {
				t.Fatalf("task %q listed twice: %+v", ft.ID, status)
			}
			seen[ft.ID] = true
		}
		if _, err := New(cfg); err != nil {
			t.Fatalf("state file written by the restored fleet refused: %v", err)
		}
	})
}
