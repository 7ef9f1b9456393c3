// Package tracking turns the estimators into a long-running workload: a
// Service attaches one estimator to a live hidden database — a local
// store churned by its owner, or a remote dynagg-serve URL reached
// through webiface — advances it one budgeted round per StepBudget call,
// checkpoints its state through the estimator/persist snapshots so a
// crash (or a deliberate restart) resumes the drill-down pool instead of
// rebuilding it, and publishes each round's estimates and statistics as
// an immutable View.
//
// A Service has no clock, HTTP surface or metrics of its own. The fleet
// (internal/fleet, cmd/dynagg-fleet) ticks it, serves its View and
// exports its round latency; tracking one aggregate is a fleet of one
// task. This is the paper's §6 online-experiment setting run as a
// first-class workload: the tracker that followed Amazon and eBay for
// weeks is one fleet task ticked daily.
//
// Concurrency: the estimator inside a Service stays single-goroutine —
// one stepping goroutine at a time advances it: a StepOnce/StepBudget
// caller, such as the fleet scheduler that owns the service as one of
// its tasks. The estimator's own execution engine fans the round's
// drill-down walks out over Config.Parallelism goroutines internally.
// Readers never touch the estimator: each round publishes an immutable
// view under the service mutex.
package tracking

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/schema"
)

// Session is the budgeted per-round query capability a tracked estimator
// consumes (re-exported so callers need not import internal/estimator).
type Session = estimator.Session

// SessionSource produces one budgeted session per round. Both
// (*hiddendb.Iface).NewSession and (*webiface.Client).NewSession fit
// after wrapping their concrete return in the interface.
type SessionSource func(budget int) Session

// Config tunes a Service.
type Config struct {
	// Algorithm picks the estimator: RESTART, REISSUE or RS (default).
	// A checkpoint resumes only under the algorithm that wrote it.
	Algorithm string
	// Aggregates are the tracked aggregate specs (required). On resume
	// they must match the checkpoint (same count and order).
	Aggregates []*agg.Aggregate
	// Budget is the per-round query limit G of StepOnce: at least 1, or
	// the round fails with estimator.ErrNoBudget.
	Budget int
	// Seed drives the estimator's randomness. A resumed service should
	// use a fresh seed: signatures already drawn live in the checkpoint.
	Seed int64
	// Parallelism is the estimator execution engine's worker bound
	// (0 = sequential).
	Parallelism int
	// Pilot overrides RS's bootstrap parameter ϖ (0 = default).
	Pilot int
	// DeltaTarget makes RS optimise the trans-round delta.
	DeltaTarget bool
	// MaxDrills bounds the drill-down pool (0 = no bound). Long-running
	// services should set it: the pool otherwise grows with lifetime.
	MaxDrills int
	// CheckpointPath, when set, is written atomically after every round
	// and loaded on New, so a restarted service resumes mid-stream.
	CheckpointPath string
	// PreRound, when set, runs before each round's Step — the hook a
	// local simulation uses to apply churn (round is the upcoming
	// estimator round, numbered from 1). A remote service leaves it nil:
	// the real database changes on its own.
	PreRound func(round int) error
	// AnswerCacheStats is no longer read: the fleet exports a local
	// target's answer-cache counters from fleet.Target.AnswerCacheStats.
	//
	// Deprecated: nothing reads it. Its only setter is the perfbench
	// module's track workload; the field goes once that stops setting it.
	AnswerCacheStats func() hiddendb.CacheStats
}

// Service continuously tracks aggregates over a live hidden database.
type Service struct {
	cfg    Config
	source SessionSource

	// totalQueries accumulates session usage across this process's steps.
	// Owned by the stepping goroutine; readers see the copy in the view.
	totalQueries int

	// roundHist distributes per-round wall time (churn + estimator step +
	// checkpoint); the fleet exports it as dynagg_fleet_task_round_seconds.
	roundHist obs.Histogram

	mu   sync.RWMutex
	est  estimator.Estimator // guarded: Step on the stepping goroutine, reads via view
	view View
}

// View is the immutable per-round publication readers consume.
type View struct {
	Algorithm string `json:"algorithm"`
	Round     int    `json:"round"`
	// Budget is the query budget granted to the last executed round
	// (Config.Budget before any step). Under a fleet scheduler it is the
	// task's weighted-fair share of the tick budget, which may vary.
	Budget   int `json:"budget"`
	UsedLast int `json:"used_last_round"`
	// QueriesTotal is the cumulative session usage of this process (a
	// resumed service restarts it at 0; Round keeps lifetime continuity).
	QueriesTotal int `json:"queries_total"`
	// Wasted is the estimator's lifetime count of speculatively issued
	// queries whose walks were never applied — the price of concurrent
	// issuance on rounds that abort (persisted with the checkpoint).
	Wasted   int       `json:"wasted_queries"`
	Drills   int       `json:"drill_downs"`
	Steps    int       `json:"steps_this_process"`
	Resumed  bool      `json:"resumed"`
	LastStep time.Time `json:"last_step"`
	// LastRoundMs is the wall time of the last executed round — churn
	// hook, estimator step and checkpoint write included (0 before the
	// first step of this process).
	LastRoundMs float64          `json:"last_round_ms"`
	LastError   string           `json:"last_error,omitempty"`
	Estimates   []EstimateStatus `json:"estimates"`
}

// EstimateStatus is one aggregate's current estimate.
type EstimateStatus struct {
	Aggregate string         `json:"aggregate"`
	OK        bool           `json:"ok"`
	Value     float64        `json:"value"`
	Variance  float64        `json:"variance"`
	Drills    int            `json:"drills"`
	Delta     *EstimateDelta `json:"delta,omitempty"`
}

// EstimateDelta is the trans-round estimate Q(D_j) − Q(D_{j-1}).
type EstimateDelta struct {
	Value    float64 `json:"value"`
	Variance float64 `json:"variance"`
}

// New builds a service over the given schema and session source. When
// Config.CheckpointPath names an existing file, the estimator state is
// resumed from it: the aggregate list must match the checkpoint, and a
// checkpoint of another algorithm than Config.Algorithm is refused.
// Otherwise a fresh estimator starts at round 0.
func New(sch *schema.Schema, source SessionSource, cfg Config) (*Service, error) {
	if sch == nil || source == nil {
		return nil, errors.New("tracking: schema and session source required")
	}
	if len(cfg.Aggregates) == 0 {
		return nil, errors.New("tracking: at least one aggregate required")
	}
	ecfg := estimator.Config{
		Rand:        rand.New(rand.NewSource(cfg.Seed)),
		Pilot:       cfg.Pilot,
		MaxDrills:   cfg.MaxDrills,
		Parallelism: cfg.Parallelism,
		DeltaTarget: cfg.DeltaTarget,
	}
	var est estimator.Estimator
	resumed := false
	if cfg.CheckpointPath != "" {
		f, err := os.Open(cfg.CheckpointPath)
		switch {
		case err == nil:
			est, err = estimator.Load(f, sch, cfg.Aggregates, ecfg)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("tracking: resume %s: %w", cfg.CheckpointPath, err)
			}
			want := cfg.Algorithm
			if want == "" {
				want = "RS"
			}
			if est.Name() != want {
				return nil, fmt.Errorf("tracking: resume %s: checkpoint holds %s, config asks for %s",
					cfg.CheckpointPath, est.Name(), want)
			}
			resumed = true
		case !os.IsNotExist(err):
			return nil, fmt.Errorf("tracking: checkpoint: %w", err)
		}
	}
	if est == nil {
		var err error
		if est, err = estimator.New(cfg.Algorithm, sch, cfg.Aggregates, ecfg); err != nil {
			return nil, err
		}
	}
	s := &Service{cfg: cfg, source: source, est: est}
	s.view = s.buildView(cfg.Budget, resumed, 0, nil)
	return s, nil
}

// RoundLatency snapshots the per-round wall-time histogram — the data
// behind the fleet's dynagg_fleet_task_round_seconds family.
func (s *Service) RoundLatency() obs.HistogramSnapshot { return s.roundHist.Snapshot() }

// CurrentView returns the latest published round view.
func (s *Service) CurrentView() View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view
}

// buildView snapshots the estimator into an immutable View. Callers must
// hold no lock; the estimator must be quiescent (New, or the stepping
// goroutine between steps).
func (s *Service) buildView(budget int, resumed bool, steps int, stepErr error) View {
	v := View{
		Algorithm:    s.est.Name(),
		Round:        s.est.Round(),
		Budget:       budget,
		UsedLast:     s.est.UsedLastRound(),
		QueriesTotal: s.totalQueries,
		Wasted:       s.est.WastedQueries(),
		Drills:       s.est.DrillDowns(),
		Steps:        steps,
		Resumed:      resumed,
	}
	if stepErr != nil {
		v.LastError = stepErr.Error()
	}
	for i, a := range s.cfg.Aggregates {
		st := EstimateStatus{Aggregate: a.String()}
		if est, ok := s.est.Estimate(i); ok {
			st.OK = true
			st.Value = est.Value
			st.Variance = est.Variance
			st.Drills = est.Drills
		}
		if d, ok := s.est.EstimateDelta(i); ok {
			st.Delta = &EstimateDelta{Value: d.Value, Variance: d.Variance}
		}
		v.Estimates = append(v.Estimates, st)
	}
	return v
}

// StepOnce advances the tracker by one round budgeted at Config.Budget:
// PreRound churn (if any), one estimator Step, a checkpoint write, and
// the view publication. It must not be called concurrently with itself
// or StepBudget. A Step error is recorded in the view and returned;
// the service remains usable — the next round may succeed (e.g. a
// transient network failure against a remote database).
func (s *Service) StepOnce() error { return s.StepBudget(s.cfg.Budget) }

// StepBudget is StepOnce with an explicit round budget overriding
// Config.Budget — the entry point a fleet scheduler (internal/fleet)
// uses to hand each task its weighted-fair share of a global tick
// budget. Given the same sequence of budgets and the same seed, a
// service produces byte-identical estimates no matter who drives it.
func (s *Service) StepBudget(g int) error {
	s.mu.RLock()
	resumed, steps := s.view.Resumed, s.view.Steps
	s.mu.RUnlock()

	roundStart := time.Now()
	err := s.stepEstimator(g)
	if err == nil {
		if cerr := s.checkpoint(); cerr != nil {
			err = cerr
		} else {
			steps++
		}
	}
	roundDur := time.Since(roundStart)
	s.roundHist.Observe(roundDur)
	v := s.buildView(g, resumed, steps, err)
	v.LastStep = time.Now()
	v.LastRoundMs = obs.DurationMs(roundDur)
	s.mu.Lock()
	s.view = v
	s.mu.Unlock()
	return err
}

func (s *Service) stepEstimator(g int) error {
	if s.cfg.PreRound != nil {
		if err := s.cfg.PreRound(s.est.Round() + 1); err != nil {
			return fmt.Errorf("tracking: pre-round: %w", err)
		}
	}
	sess := s.source(g)
	err := s.est.Step(sess)
	s.totalQueries += sess.Used()
	return err
}

// checkpoint streams the estimator snapshot into the checkpoint file
// atomically, so a crash mid-write never corrupts the resumable state.
func (s *Service) checkpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	err := WriteFileAtomic(s.cfg.CheckpointPath, func(w io.Writer) error {
		return estimator.Save(s.est, w)
	})
	if err != nil {
		return fmt.Errorf("tracking: checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces path with what write streams into a temp
// file beside it: the temp file is closed and renamed over path only
// when write and the close succeed, and removed otherwise. Readers of
// path see the old contents or the new, never a torn write. Nothing is
// fsynced, so a power loss may still lose the newest write. The task
// checkpoints and the fleet state file are both written through it.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
