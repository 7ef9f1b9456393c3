// Package fleet multiplexes many tracked aggregates over shared query
// budgets and shared remote connections — the control-plane layer above
// internal/tracking. One Manager owns N tasks (each an estimator spec
// bound to a target: a named local interface or a remote dynagg-serve
// URL), advances them on a single scheduler loop that splits a global
// per-tick query budget by weighted fair sharing (budget.go), pools
// webiface clients by host so tasks against one remote reuse its
// rate-limiter slots (clientpool.go), checkpoints every task atomically
// under one fleet directory so a crash or restart resumes the whole
// fleet, and serves an HTTP control plane (http.go).
//
// Each task embeds a tracking.Service: the per-round stepping, view
// publication and checkpointing are exactly the standalone service's,
// driven through Service.StepBudget — which is why a fleet task's
// estimate stream is byte-identical to an equally budgeted standalone
// tracker (proven by TestFleetMatchesStandalone).
//
// Ownership rules (the fleet extension of the repo's concurrency
// contract):
//
//   - The scheduler goroutine owns every task's Service stepping: only
//     Run/TickOnce advance estimators, one task at a time in ascending
//     task-ID order. Estimator internals never cross tasks, so the step
//     order cannot change any estimate.
//   - The control plane owns the task TABLE: add/remove/pause mutate the
//     manager's map under its mutex and take effect at the next tick
//     boundary; a task removed mid-tick is not stepped once its turn
//     comes, may finish a round already in flight, and its ID cannot be
//     re-added until that tick ends (so two services never share one
//     checkpoint file). The control plane never touches a Service
//     beyond reading its immutable View.
//   - HTTP readers only consume immutable snapshots: tracking.View per
//     task, Status assembled under a read lock.
//   - Targets are shared infrastructure: local targets must be
//     concurrent-reader-safe (hiddendb.Iface is), and each target's
//     PreTick churn hook runs exactly once per tick on the scheduler
//     goroutine — before any task steps — regardless of how many tasks
//     point at it. Pooled webiface clients are concurrent-safe by
//     construction.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/metrics"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/tracking"
	"github.com/dynagg/dynagg/webiface"
)

// Target is a local destination tasks can point at by name.
type Target struct {
	// Schema is the target's queryable schema.
	Schema *schema.Schema
	// Source produces one budgeted session per round.
	Source tracking.SessionSource
	// PreTick, when set, applies the target's churn. The scheduler calls
	// it once per tick (numbered from 1, continuing across restarts)
	// before any task steps — never once per task, so N tasks on one
	// target see one database evolution.
	PreTick func(tick int) error
	// AnswerCacheStats, when set, reports the target interface's
	// answer-cache counters for /v1/metrics (local targets pass the
	// Iface's CacheStats method; remote targets leave it nil).
	AnswerCacheStats func() hiddendb.CacheStats
}

// Config tunes a Manager.
type Config struct {
	// TickBudget is the global query budget split across the runnable
	// tasks each tick. 0 lifts the limit: every task runs a round capped
	// only by its MaxBudget, which suits local targets alone, and a
	// RESTART or REISSUE task without MaxBudget or MaxDrills fails each
	// round with estimator.ErrUnboundedRound.
	TickBudget int
	// Interval is the tick cadence of Run (TickOnce ignores it).
	Interval time.Duration
	// Dir is the fleet directory: per-task checkpoints (<id>.ckpt) plus
	// the fleet state file (fleet.json, task specs + tick counter),
	// written atomically so a crash/restart resumes every task. Empty
	// disables persistence.
	Dir string
	// MaxTicks stops Run after this many ticks (0 = until cancelled).
	MaxTicks int
	// Targets are the named local targets task specs may reference.
	Targets map[string]Target
	// Client supplies the defaults for pooled remote clients.
	Client webiface.ClientOptions
}

// task binds one spec to its running service. The spec and the
// scheduler-written fields (granted, stepErr) are guarded by Manager.mu;
// the service's own state is read through its immutable View.
type task struct {
	spec    TaskSpec
	svc     *tracking.Service
	target  string // display label: "local:<name>" or "remote:<url>"
	granted int    // budget granted at the last tick that stepped it
	stepErr error
}

// Manager owns a fleet of tracking tasks.
type Manager struct {
	cfg   Config
	pool  *ClientPool
	start time.Time

	// tickHist distributes whole-tick wall time (churn hooks + every
	// stepped task); /v1/metrics exports it as dynagg_fleet_tick_seconds.
	// Per-task round time lives in each task's tracking.Service.
	tickHist obs.Histogram

	// saveMu serialises whole state-file writes: the snapshot is taken
	// and the file renamed under it, so the last completed write always
	// carries the freshest task table (control-plane mutations and the
	// scheduler may persist concurrently).
	saveMu sync.Mutex

	mu         sync.RWMutex
	tasks      map[string]*task
	ticks      int   // lifetime tick counter (restored from the state file)
	procTicks  int   // ticks completed by THIS process (readiness probes)
	tickErr    error // last PreTick error, surfaced in Status
	persistErr error // last state-file write error, surfaced in Status
	// failed holds persisted task specs that could not be restored (e.g.
	// their remote was down at startup). They keep their place in the
	// state file and their error in Status; POSTing the spec again once
	// the target recovers resumes the task from its checkpoint.
	failed map[string]failedTask
	// tickActive and draining close the remove-then-re-add race: a task
	// removed while a tick is in flight may still be mid-step, and a
	// re-Add in that window would build a second service over the SAME
	// checkpoint file — two lineages racing one rename. Remove records
	// such IDs in draining; Add refuses them until the tick ends.
	tickActive bool
	draining   map[string]bool
	// retired accumulates the process totals of removed tasks so the
	// fleet-wide counters stay monotone for Prometheus. (Re-adding a
	// removed ID resumes its checkpoint, whose lifetime wasted counter
	// re-enters the sum — a small documented over-count.)
	retiredQueries, retiredWasted, retiredRounds int
}

// failedTask is a persisted spec that could not be restored at startup.
type failedTask struct {
	spec TaskSpec
	err  error
}

// stateFile is the persisted fleet state (Config.Dir/fleet.json).
type stateFile struct {
	Ticks int        `json:"ticks"`
	Tasks []TaskSpec `json:"tasks"`
}

const stateFileName = "fleet.json"

// ErrTaskExists reports an Add with an already-registered task ID; the
// control plane maps it to HTTP 409.
var ErrTaskExists = errors.New("fleet: task already exists")

// New builds a manager. When Config.Dir holds a fleet state file from a
// previous run, every persisted task is re-added (local targets resolved
// by name against Config.Targets, remotes re-dialed through the pool)
// and resumes from its checkpoint; the tick counter continues where the
// previous process stopped. A task that cannot be restored — say its
// remote is down — does NOT take the fleet down: its spec keeps its
// place in the state file, the failure is surfaced in Status, and
// POSTing the spec again once the target recovers resumes it from its
// checkpoint.
func New(cfg Config) (*Manager, error) {
	m := &Manager{
		cfg:      cfg,
		pool:     NewClientPool(cfg.Client),
		start:    time.Now(),
		tasks:    make(map[string]*task),
		failed:   make(map[string]failedTask),
		draining: make(map[string]bool),
	}
	if cfg.Dir == "" {
		return m, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: dir: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.Dir, stateFileName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		return m, nil
	case err != nil:
		return nil, fmt.Errorf("fleet: state: %w", err)
	}
	var st stateFile
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("fleet: state decode: %w", err)
	}
	// saveState writes neither a negative tick count nor an ID twice, so
	// either means a damaged or hand-edited file. A negative count would
	// hand PreTick a negative tick and export a negative counter; a
	// repeated ID would run one spec and persist the other in its place.
	if st.Ticks < 0 {
		return nil, fmt.Errorf("fleet: state holds a negative tick count %d", st.Ticks)
	}
	seen := make(map[string]bool, len(st.Tasks))
	for _, spec := range st.Tasks {
		if seen[spec.ID] {
			return nil, fmt.Errorf("fleet: state lists task %q twice", spec.ID)
		}
		seen[spec.ID] = true
	}
	m.ticks = st.Ticks
	for _, spec := range st.Tasks {
		if err := m.add(spec, false); err != nil {
			m.failed[spec.ID] = failedTask{spec: spec, err: err}
		}
	}
	return m, nil
}

// Add validates the spec, resolves its target, builds the task's
// tracking.Service (resuming from the fleet directory's checkpoint when
// one exists) and registers it. The task is stepped from the next tick.
func (m *Manager) Add(spec TaskSpec) error { return m.add(spec, true) }

func (m *Manager) add(spec TaskSpec, persist bool) error {
	if err := spec.validate(); err != nil {
		return err
	}
	m.mu.RLock()
	_, exists := m.tasks[spec.ID]
	draining := m.draining[spec.ID]
	m.mu.RUnlock()
	if exists {
		return fmt.Errorf("%w: %s", ErrTaskExists, spec.ID)
	}
	if draining {
		return fmt.Errorf("fleet: task %s is draining (removed mid-tick); retry after the current tick", spec.ID)
	}

	sch, source, label, err := m.resolveTarget(spec)
	if err != nil {
		return err
	}
	for i, as := range spec.Aggregates {
		for _, p := range as.Where {
			if p.Attr >= sch.M() {
				return fmt.Errorf("fleet: task %s aggregate %d: no attribute %d (the target has %d)",
					spec.ID, i, p.Attr, sch.M())
			}
		}
	}
	aggs, err := spec.buildAggregates()
	if err != nil {
		return err
	}
	tcfg := tracking.Config{
		Algorithm:   spec.Algorithm,
		Aggregates:  aggs,
		Budget:      spec.MaxBudget,
		Seed:        spec.Seed,
		Parallelism: spec.Parallelism,
		Pilot:       spec.Pilot,
		DeltaTarget: spec.DeltaTarget,
		MaxDrills:   spec.MaxDrills,
	}
	if m.cfg.Dir != "" {
		tcfg.CheckpointPath = m.checkpointPath(spec.ID)
		if _, err := os.Stat(tcfg.CheckpointPath); err == nil {
			// The task will RESUME from its checkpoint. The estimator RNG is
			// not serialised, and the persisted spec seed has already been
			// consumed by the previous lineage — reusing it verbatim would
			// redraw the very signatures sitting in the checkpointed pool
			// (tracking.Config.Seed: "a resumed service should use a fresh
			// seed"). Fold the lifetime tick counter in: deterministic for
			// the resume tests, fresh on every restart.
			m.mu.RLock()
			ticks := m.ticks
			m.mu.RUnlock()
			tcfg.Seed = resumeSeed(spec.Seed, ticks)
		}
	}
	svc, err := tracking.New(sch, source, tcfg)
	if err != nil {
		return err
	}

	m.mu.Lock()
	if _, exists := m.tasks[spec.ID]; exists {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTaskExists, spec.ID)
	}
	if m.draining[spec.ID] {
		m.mu.Unlock()
		return fmt.Errorf("fleet: task %s is draining (removed mid-tick); retry after the current tick", spec.ID)
	}
	m.tasks[spec.ID] = &task{spec: spec, svc: svc, target: label}
	delete(m.failed, spec.ID) // a successful (re-)add clears the restore failure
	m.mu.Unlock()
	if persist {
		m.saveState()
	}
	return nil
}

// checkpointPath is the task's checkpoint file inside the fleet dir.
func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".ckpt")
}

// resumeSeed derives the fresh estimator seed a resumed task uses: the
// spec seed mixed (SplitMix64 finalizer) with the lifetime tick counter
// at resume time, so no restart ever replays the random stream a
// previous lineage already consumed.
func resumeSeed(seed int64, ticks int) int64 {
	x := uint64(ticks) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return seed ^ int64(x^(x>>31))
}

// resolveTarget binds a spec to its schema and session source.
func (m *Manager) resolveTarget(spec TaskSpec) (*schema.Schema, tracking.SessionSource, string, error) {
	if spec.Remote != "" {
		c, err := m.pool.Get(spec.Remote, spec.APIKey)
		if err != nil {
			return nil, nil, "", fmt.Errorf("fleet: task %s: %w", spec.ID, err)
		}
		source := func(g int) tracking.Session { return c.NewSession(g) }
		return c.Schema(), source, "remote:" + spec.Remote, nil
	}
	name := spec.Target
	if name == "" {
		if len(m.cfg.Targets) != 1 {
			return nil, nil, "", fmt.Errorf("fleet: task %s: no target named and %d local targets configured",
				spec.ID, len(m.cfg.Targets))
		}
		for n := range m.cfg.Targets {
			name = n
		}
	}
	tgt, ok := m.cfg.Targets[name]
	if !ok {
		return nil, nil, "", fmt.Errorf("fleet: task %s: unknown target %q", spec.ID, name)
	}
	return tgt.Schema, tgt.Source, "local:" + name, nil
}

// Remove unregisters the task. Its checkpoint file stays in the fleet
// directory: re-adding the same ID later resumes the drill-down pool
// (delete the file manually to start over). A removal racing the
// scheduler may let the task finish one in-flight round first; until
// that tick ends, re-adding the same ID is refused (draining) so two
// services can never race one checkpoint file.
func (m *Manager) Remove(id string) error {
	m.mu.Lock()
	t, ok := m.tasks[id]
	if ok {
		// Fold the task's process totals into the retired accumulators so
		// the fleet-wide counters never decrease. (A round still in
		// flight checkpoints after this read; its queries land only in
		// the checkpoint, a documented slight undercount.)
		v := t.svc.CurrentView()
		m.retiredQueries += v.QueriesTotal
		m.retiredWasted += v.Wasted
		m.retiredRounds += v.Steps
		delete(m.tasks, id)
		if m.tickActive {
			m.draining[id] = true
		}
	} else if _, failed := m.failed[id]; failed {
		// Dropping a task that never restored (dead remote) is how an
		// operator retires it for good.
		delete(m.failed, id)
		ok = true
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: no task %s", id)
	}
	m.saveState()
	return nil
}

// SetPaused pauses or resumes a task, effective from the next tick. A
// paused task keeps its state and checkpoint; its budget share flows to
// the runnable tasks.
func (m *Manager) SetPaused(id string, paused bool) error {
	m.mu.Lock()
	t, ok := m.tasks[id]
	if ok {
		t.spec.Paused = paused
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: no task %s", id)
	}
	m.saveState()
	return nil
}

// saveState persists the fleet state file atomically
// (tracking.WriteFileAtomic).
// The snapshot and the rename happen under saveMu, so concurrent savers
// (control-plane mutations vs the scheduler) cannot let an older
// snapshot win the rename. Failures are recorded for Status rather than
// returned: persistence is best-effort durability, never a reason to
// stop tracking.
func (m *Manager) saveState() {
	if m.cfg.Dir == "" {
		return
	}
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	m.mu.Lock()
	st := stateFile{Ticks: m.ticks}
	specs := make(map[string]TaskSpec, len(m.tasks)+len(m.failed))
	for id, t := range m.tasks {
		specs[id] = t.spec
	}
	for id, f := range m.failed {
		// Unrestorable tasks keep their place in the state file until the
		// operator removes them explicitly.
		specs[id] = f.spec
	}
	for _, id := range metrics.SortedKeys(specs) {
		st.Tasks = append(st.Tasks, specs[id])
	}
	m.mu.Unlock()
	raw, err := json.MarshalIndent(st, "", "  ")
	if err == nil {
		err = tracking.WriteFileAtomic(filepath.Join(m.cfg.Dir, stateFileName), func(w io.Writer) error {
			_, err := w.Write(raw)
			return err
		})
	}
	m.mu.Lock()
	m.persistErr = err
	m.mu.Unlock()
}

// idsLocked returns all task IDs in ascending order; callers hold m.mu.
func (m *Manager) idsLocked() []string { return metrics.SortedKeys(m.tasks) }

// TickOnce runs one scheduling pass on the calling goroutine: apply
// every target's churn hook, split the tick budget across the runnable
// tasks by weighted fair sharing, and step each granted task in
// ascending task-ID order through its service (estimator round +
// checkpoint + view publication). Step errors are recorded per task and
// never stop the tick. It must not be called concurrently with itself
// or Run — the scheduler goroutine owns all task stepping.
func (m *Manager) TickOnce() {
	tickStart := time.Now()
	defer func() { m.tickHist.Observe(time.Since(tickStart)) }()
	m.mu.Lock()
	m.ticks++
	m.tickActive = true
	tick := m.ticks
	var run []*task
	var claims []claim
	for _, id := range m.idsLocked() {
		t := m.tasks[id]
		if t.spec.Paused {
			continue
		}
		run = append(run, t)
		claims = append(claims, claim{id: id, weight: t.spec.Weight, cap: t.spec.MaxBudget})
	}
	m.mu.Unlock()
	// Persist the advanced tick counter BEFORE any task checkpoint can
	// record this tick's round: tick numbers then never repeat across a
	// hard mid-tick kill, so no churn hook re-fires and no task is
	// double-stepped — a task interrupted mid-round simply misses this
	// tick, as if briefly paused. (A graceful SIGINT drain finishes the
	// tick, keeping the byte-identity guarantee exact.)
	m.saveState()

	var tickErr error
	for _, name := range metrics.SortedKeys(m.cfg.Targets) {
		if pt := m.cfg.Targets[name].PreTick; pt != nil {
			if err := pt(tick); err != nil && tickErr == nil {
				tickErr = fmt.Errorf("target %s pre-tick: %w", name, err)
			}
		}
	}

	grants := allocate(m.cfg.TickBudget, claims)
	for i, t := range run {
		g := grants[i]
		m.mu.Lock()
		removed := m.tasks[claims[i].id] != t
		if !removed {
			t.granted = g
		}
		m.mu.Unlock()
		if removed {
			// Deleted (or replaced) since the tick snapshot: don't give
			// the dead lineage another round.
			continue
		}
		if m.cfg.TickBudget > 0 && g == 0 {
			// Nothing to spend this tick; the task is not stepped (a zero
			// budget would mean "unlimited" to the session).
			continue
		}
		err := t.svc.StepBudget(g)
		m.mu.Lock()
		t.stepErr = err
		m.mu.Unlock()
	}

	m.mu.Lock()
	m.tickErr = tickErr
	m.procTicks++
	m.tickActive = false
	clear(m.draining) // in-flight steps are done; re-adds are safe again
	m.mu.Unlock()
}

// Run ticks the scheduler on Config.Interval until ctx is cancelled or
// MaxTicks is reached; the first tick runs immediately.
func (m *Manager) Run(ctx context.Context) error {
	if m.cfg.Interval <= 0 {
		return errors.New("fleet: Config.Interval required for Run")
	}
	n := 0
	step := func() bool {
		m.TickOnce()
		n++
		return m.cfg.MaxTicks > 0 && n >= m.cfg.MaxTicks
	}
	if step() {
		return nil
	}
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			if step() {
				return nil
			}
		}
	}
}

// TaskStatus is one task's row in the fleet status.
type TaskStatus struct {
	ID          string        `json:"id"`
	Target      string        `json:"target"`
	Weight      int           `json:"weight"`
	Paused      bool          `json:"paused"`
	GrantedLast int           `json:"granted_last_tick"`
	LastError   string        `json:"last_error,omitempty"`
	View        tracking.View `json:"view"`
}

// FailedTaskStatus is a persisted task that could not be restored.
type FailedTaskStatus struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// Status is the fleet-wide immutable snapshot /status serves.
type Status struct {
	Ticks         int                `json:"ticks"`
	TickBudget    int                `json:"tick_budget"`
	TaskCount     int                `json:"tasks"`
	PausedCount   int                `json:"paused_tasks"`
	PooledClients int                `json:"pooled_clients"`
	QueriesTotal  int                `json:"queries_total"`
	WastedTotal   int                `json:"wasted_queries_total"`
	RoundsTotal   int                `json:"rounds_total"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	LastTickError string             `json:"last_tick_error,omitempty"`
	FailedTasks   []FailedTaskStatus `json:"failed_tasks,omitempty"`
	Tasks         []TaskStatus       `json:"task_status"`
}

// Status assembles the fleet snapshot: per-task immutable views plus
// fleet-level aggregates (queries issued this process, speculative
// waste, rounds completed).
func (m *Manager) Status() Status {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st := Status{
		Ticks:         m.ticks,
		TickBudget:    m.cfg.TickBudget,
		TaskCount:     len(m.tasks),
		PooledClients: m.pool.Size(),
		QueriesTotal:  m.retiredQueries,
		WastedTotal:   m.retiredWasted,
		RoundsTotal:   m.retiredRounds,
		UptimeSeconds: time.Since(m.start).Seconds(),
		// Non-nil so an empty fleet serialises as [] rather than null —
		// /tasks clients iterate this directly.
		Tasks: []TaskStatus{},
	}
	switch {
	case m.tickErr != nil:
		st.LastTickError = m.tickErr.Error()
	case m.persistErr != nil:
		st.LastTickError = "persist: " + m.persistErr.Error()
	}
	for _, id := range metrics.SortedKeys(m.failed) {
		st.FailedTasks = append(st.FailedTasks, FailedTaskStatus{ID: id, Error: m.failed[id].err.Error()})
	}
	for _, id := range m.idsLocked() {
		ts := m.taskStatusLocked(id, m.tasks[id])
		if ts.Paused {
			st.PausedCount++
		}
		st.QueriesTotal += ts.View.QueriesTotal
		st.WastedTotal += ts.View.Wasted
		st.RoundsTotal += ts.View.Steps
		st.Tasks = append(st.Tasks, ts)
	}
	return st
}

// taskStatusLocked builds one task's status row; callers hold m.mu.
func (m *Manager) taskStatusLocked(id string, t *task) TaskStatus {
	ts := TaskStatus{
		ID:          id,
		Target:      t.target,
		Weight:      t.spec.Weight,
		Paused:      t.spec.Paused,
		GrantedLast: t.granted,
		View:        t.svc.CurrentView(),
	}
	if t.stepErr != nil {
		ts.LastError = t.stepErr.Error()
	}
	return ts
}

// taskRoundLatencies snapshots every task's per-round wall-time
// histogram, keyed by task ID, for the per-task latency families.
func (m *Manager) taskRoundLatencies() map[string]obs.HistogramSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]obs.HistogramSnapshot, len(m.tasks))
	for id, t := range m.tasks {
		out[id] = t.svc.RoundLatency()
	}
	return out
}

// TaskView returns one task's current view.
func (m *Manager) TaskView(id string) (TaskStatus, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tasks[id]
	if !ok {
		return TaskStatus{}, false
	}
	return m.taskStatusLocked(id, t), true
}

// Ticks returns the number of started scheduler ticks (lifetime,
// continuing across restarts when persistence is on): a tick counts from
// its start, so a tick still in flight is included.
func (m *Manager) Ticks() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ticks
}

// ProcessTicks returns the ticks completed by this process — unlike
// Ticks it starts at 0 on every restart, so readiness probes key on
// actual scheduler progress rather than the restored lifetime counter.
func (m *Manager) ProcessTicks() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.procTicks
}

// TaskCount returns the number of registered tasks — a cheap accessor
// for readiness probes that must not copy every task view.
func (m *Manager) TaskCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tasks)
}
