package tracking

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/workload"
)

// newLocalService wires a Service over a fresh simulated database with
// deterministic churn.
func newLocalService(t *testing.T, seed int64, ckpt string) (*Service, *workload.Env) {
	t.Helper()
	data := workload.AutosLikeN(seed, 10000, 10)
	env, err := workload.NewEnv(data, 9000, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	svc, err := New(iface.Schema(),
		func(g int) Session { return iface.NewSession(g) },
		Config{
			Algorithm:      "REISSUE",
			Aggregates:     []*agg.Aggregate{agg.CountAll()},
			Budget:         300,
			Seed:           seed + 7,
			Parallelism:    4,
			CheckpointPath: ckpt,
			PreRound: func(round int) error {
				if round == 1 {
					return nil
				}
				if err := env.InsertFromPool(100); err != nil {
					return err
				}
				return env.DeleteFraction(0.005)
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return svc, env
}

func TestServiceStepPublishesEstimates(t *testing.T) {
	svc, env := newLocalService(t, 100, "")
	for i := 0; i < 3; i++ {
		if err := svc.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	v := svc.CurrentView()
	if v.Round != 3 || v.Steps != 3 {
		t.Fatalf("round=%d steps=%d", v.Round, v.Steps)
	}
	if v.UsedLast == 0 || v.UsedLast > 300 {
		t.Fatalf("used last round = %d", v.UsedLast)
	}
	if len(v.Estimates) != 1 || !v.Estimates[0].OK {
		t.Fatalf("estimates: %+v", v.Estimates)
	}
	truth := float64(env.Store.Size())
	if rel := math.Abs(v.Estimates[0].Value-truth) / truth; rel > 0.5 {
		t.Errorf("estimate rel err %.2f (est %.0f truth %.0f)", rel, v.Estimates[0].Value, truth)
	}
	if v.Estimates[0].Delta == nil {
		t.Error("no delta after 3 rounds")
	}
}

func TestServiceCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "track.ckpt")
	svc1, _ := newLocalService(t, 200, ckpt)
	for i := 0; i < 2; i++ {
		if err := svc1.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	before := svc1.CurrentView()

	// "Crash" and restart: a second service over the same checkpoint
	// resumes at the same round with the same drill-down pool.
	svc2, _ := newLocalService(t, 200, ckpt)
	if !svc2.CurrentView().Resumed {
		t.Fatal("service did not resume from checkpoint")
	}
	v := svc2.CurrentView()
	if v.Round != before.Round || v.Drills != before.Drills {
		t.Fatalf("resumed round=%d drills=%d, want %d/%d", v.Round, v.Drills, before.Round, before.Drills)
	}
	if !v.Estimates[0].OK || v.Estimates[0].Value != before.Estimates[0].Value {
		t.Fatalf("resumed estimate %+v vs %+v", v.Estimates[0], before.Estimates[0])
	}
	if err := svc2.StepOnce(); err != nil {
		t.Fatal(err)
	}
	if got := svc2.CurrentView().Round; got != before.Round+1 {
		t.Fatalf("round after resumed step = %d", got)
	}
}

// TestServiceRefusesCheckpointOfAnotherAlgorithm: a checkpoint resumes
// only under the algorithm that wrote it, where an empty Algorithm means
// RS. Resuming it under another name must fail and name both algorithms,
// not silently run the checkpoint's estimator.
func TestServiceRefusesCheckpointOfAnotherAlgorithm(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "track.ckpt")
	svc, _ := newLocalService(t, 250, ckpt) // REISSUE
	if err := svc.StepOnce(); err != nil {
		t.Fatal(err)
	}
	data := workload.AutosLikeN(250, 10000, 10)
	env, err := workload.NewEnv(data, 9000, 251)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	for _, algo := range []string{"RS", ""} {
		svc2, err := New(iface.Schema(), func(g int) Session { return iface.NewSession(g) }, Config{
			Algorithm:      algo,
			Aggregates:     []*agg.Aggregate{agg.CountAll()},
			CheckpointPath: ckpt,
		})
		if err == nil {
			t.Fatalf("Algorithm %q resumed a REISSUE checkpoint (running %s)", algo, svc2.CurrentView().Algorithm)
		}
		if msg := err.Error(); !strings.Contains(msg, "REISSUE") || !strings.Contains(msg, "RS") {
			t.Errorf("Algorithm %q: error %q does not name both algorithms", algo, msg)
		}
	}
}

func TestServiceValidation(t *testing.T) {
	data := workload.AutosLikeN(1, 2000, 8)
	env, err := workload.NewEnv(data, 1800, 2)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 50, nil)
	source := func(g int) Session { return iface.NewSession(g) }
	if _, err := New(nil, source, Config{Aggregates: []*agg.Aggregate{agg.CountAll()}}); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := New(iface.Schema(), source, Config{}); err == nil {
		t.Error("no aggregates accepted")
	}
	if _, err := New(iface.Schema(), source, Config{
		Algorithm:  "MAGIC",
		Aggregates: []*agg.Aggregate{agg.CountAll()},
	}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := New(iface.Schema(), source, Config{Aggregates: []*agg.Aggregate{agg.CountAll()}}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileAtomic: a failed write leaves the old contents and no
// temp file behind; a successful one replaces the contents whole.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if err := write("torn")(w); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("contents %q (%v), want %q", got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("dir holds %d entries (%v), want only the file", len(entries), err)
		}
	}
	check("old")
	if err := WriteFileAtomic(path, write("new")); err != nil {
		t.Fatal(err)
	}
	check("new")
}
