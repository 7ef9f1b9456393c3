package dynagg

import (
	"errors"
	"io"
	"math/rand"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/livesim"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Schema describes the categorical attributes of a hidden database.
	Schema = schema.Schema
	// Attr is one categorical attribute.
	Attr = schema.Attr
	// Tuple is one immutable database row.
	Tuple = schema.Tuple

	// Store owns simulated database contents (harness side).
	Store = hiddendb.Store
	// Snapshot is one immutable version of a Store: queries are answered
	// against it (prefix binary search, inverted posting lists, or full
	// scan, whichever is estimated cheapest), and any number of
	// goroutines may read one snapshot while the harness prepares the
	// next round. Obtain via Store.Snapshot or Iface.Snapshot.
	Snapshot = hiddendb.Snapshot
	// Iface is the restrictive top-k search view over a Store. It is
	// safe for concurrent reader goroutines; give each its own Session.
	Iface = hiddendb.Iface
	// Session is a per-round budgeted view of an Iface, a ShardedIface
	// epoch or a remote database client.
	Session = hiddendb.Session
	// ShardedStore is a Store hash-partitioned N ways by tuple ID, with
	// per-shard snapshots and a fleet-wide version epoch.
	ShardedStore = hiddendb.ShardedStore
	// ShardedIface is the top-k interface over a ShardedStore: queries
	// are answered by scatter-gather across one epoch's pinned per-shard
	// snapshots, byte-identical to an unsharded Iface over the same data.
	ShardedIface = hiddendb.ShardedIface
	// Epoch pins one immutable snapshot per shard; all of a round's
	// answers are served from the same epoch.
	Epoch = hiddendb.Epoch
	// Searcher is the only capability estimators require; implement it
	// over a real web API to run the estimators against a live site.
	Searcher = hiddendb.Searcher
	// Query is a conjunctive search query.
	Query = hiddendb.Query
	// Pred is one equality predicate of a Query.
	Pred = hiddendb.Pred
	// Result is a top-k answer with an overflow flag.
	Result = hiddendb.Result
	// Scorer is the interface's proprietary ranking function.
	Scorer = hiddendb.Scorer

	// Aggregate specifies SELECT AGG(f(t)) FROM D WHERE sel(t).
	Aggregate = agg.Aggregate

	// Estimate is one aggregate estimate with variance diagnostics.
	Estimate = estimator.Estimate
	// Estimator is the common behaviour of the three algorithms.
	Estimator = estimator.Estimator

	// Dataset is a generated tuple universe.
	Dataset = workload.Dataset
	// Env binds a Dataset to a live Store and applies update schedules.
	Env = workload.Env
	// ShardedEnv is Env over a ShardedStore, applying churn with one
	// mutator goroutine per shard.
	ShardedEnv = workload.ShardedEnv
	// Schedule mutates an Env at the start of each round.
	Schedule = workload.Schedule

	// AmazonSim replays the paper's Amazon.com live experiment.
	AmazonSim = livesim.Amazon
	// EBaySim replays the paper's eBay.com live experiment.
	EBaySim = livesim.EBay
)

// NullCode marks a NULL value in a nullable attribute.
const NullCode = schema.NullCode

// ErrBudgetExhausted is returned by Session.Search past the round budget.
var ErrBudgetExhausted = hiddendb.ErrBudgetExhausted

// ErrNoBudget is returned by a Step on a session whose budget is below
// 1. The Step spends no query.
var ErrNoBudget = estimator.ErrNoBudget

// Schema and store construction.
var (
	// NewSchema builds a schema from attributes.
	NewSchema = schema.New
	// UniformSchema builds m attributes of equal domain size.
	UniformSchema = schema.Uniform
	// NewStore creates an empty simulated hidden database.
	NewStore = hiddendb.NewStore
	// NewIface wraps a store in a top-k search interface.
	NewIface = hiddendb.NewIface
	// NewShardedStore creates an empty store hash-partitioned n ways.
	NewShardedStore = hiddendb.NewShardedStore
	// NewShardedIface wraps a sharded store in a scatter-gather top-k
	// interface.
	NewShardedIface = hiddendb.NewShardedIface
	// NewQuery builds a conjunctive query from predicates.
	NewQuery = hiddendb.NewQuery
	// DefaultScorer ranks tuples by a deterministic hash.
	DefaultScorer = hiddendb.DefaultScorer
	// AuxScorer ranks tuples by an auxiliary payload (e.g. price).
	AuxScorer = hiddendb.AuxScorer
)

// Aggregate constructors.
var (
	// CountAll is COUNT(*).
	CountAll = agg.CountAll
	// CountWhere is COUNT(*) under a conjunctive selection condition.
	CountWhere = agg.CountWhere
	// SumOf is SUM(f(t)).
	SumOf = agg.SumOf
	// SumWhere is SUM(f(t)) under a selection condition.
	SumWhere = agg.SumWhere
	// AvgOf is AVG(f(t)).
	AvgOf = agg.AvgOf
	// AvgWhere is AVG(f(t)) under a selection condition.
	AvgWhere = agg.AvgWhere
	// AuxField reads the i-th auxiliary payload as f(t).
	AuxField = agg.AuxField
	// Indicator is 1 when a query matches t and 0 otherwise.
	Indicator = agg.Indicator
)

// Dataset generators and environments.
var (
	// AutosLike generates the full 188,917-tuple Autos-shaped dataset.
	AutosLike = workload.AutosLike
	// AutosLikeN generates an Autos-shaped dataset of n tuples over the
	// first m (≤38) Autos attributes.
	AutosLikeN = workload.AutosLikeN
	// Scalable generates a uniform dataset for scalability sweeps.
	Scalable = workload.Scalable
	// CustomDataset generates a dataset over a caller-defined schema.
	CustomDataset = workload.Custom
	// NewEnv loads an initial database state from a dataset.
	NewEnv = workload.NewEnv
	// NewShardedEnv loads an initial database state into a sharded store.
	NewShardedEnv = workload.NewShardedEnv
	// NewAmazonSim builds the Amazon live-experiment simulator.
	NewAmazonSim = livesim.NewAmazon
	// NewEBaySim builds the eBay live-experiment simulator.
	NewEBaySim = livesim.NewEBay
	// AmazonDays labels the Amazon simulator's daily rounds.
	AmazonDays = livesim.AmazonDays
	// EBayHours labels the eBay simulator's hourly rounds.
	EBayHours = livesim.EBayHours
)

// Algorithm selects one of the paper's estimators.
type Algorithm string

// The three algorithms of the paper.
const (
	AlgoRestart Algorithm = "RESTART"
	AlgoReissue Algorithm = "REISSUE"
	AlgoRS      Algorithm = "RS"
)

// TrackerOptions configures a Tracker.
type TrackerOptions struct {
	// Algorithm picks the estimator (default AlgoRS).
	Algorithm Algorithm
	// Budget is the per-round query limit G imposed by the database: at
	// least 1, or Step returns ErrNoBudget.
	Budget int
	// Seed drives all random choices; runs are reproducible.
	Seed int64
	// Pilot is RS-ESTIMATOR's bootstrap parameter ϖ (default 10).
	Pilot int
	// RetainTuples keeps retrieved tuples for ad hoc queries (§5.1).
	RetainTuples bool
	// DeltaTarget makes RS allocate its budget for the trans-round delta
	// instead of the single-round value (Figs 15–17).
	DeltaTarget bool
	// MaxDrills bounds the drill-down pool (0 = no bound).
	MaxDrills int
	// BroadMatchNull must be set when the target database returns
	// NULL-valued tuples for any predicate on that attribute (§5); the
	// estimators then apply the matching probability correction.
	BroadMatchNull bool
	// Parallelism bounds how many goroutines issue a round's planned
	// drill-down walks concurrently against the session (0 or less means
	// sequential). Estimates are byte-identical for every value; sessions
	// that are not safe for concurrent searching are served sequentially
	// regardless.
	Parallelism int
}

// estimatorConfig maps the options onto the estimator's configuration.
func (o TrackerOptions) estimatorConfig() estimator.Config {
	return estimator.Config{
		Rand:           rand.New(rand.NewSource(o.Seed)),
		Pilot:          o.Pilot,
		RetainTuples:   o.RetainTuples,
		MaxDrills:      o.MaxDrills,
		BroadMatchNull: o.BroadMatchNull,
		Parallelism:    o.Parallelism,
		DeltaTarget:    o.DeltaTarget,
	}
}

// BudgetedSession is the per-round query capability a Tracker consumes:
// a Searcher plus budget accounting. *dynagg.Session implements it, over
// a local simulation and a remote HTTP database (webiface.Client) alike.
type BudgetedSession = estimator.Session

// SessionSource produces one budgeted session per round. *Iface and
// *webiface.Client both provide a NewSession method fitting this shape.
type SessionSource func(budget int) BudgetedSession

// Tracker continuously estimates a set of aggregates over a dynamic
// hidden database, one budgeted round at a time.
type Tracker struct {
	est        estimator.Estimator
	newSession SessionSource
	g          int
}

// NewTracker attaches an estimator to a local search interface.
func NewTracker(iface *Iface, aggs []*Aggregate, opts TrackerOptions) (*Tracker, error) {
	if iface == nil {
		return nil, errors.New("dynagg: nil interface")
	}
	return NewTrackerWithSource(iface.Schema(),
		func(g int) BudgetedSession { return iface.NewSession(g) }, aggs, opts)
}

// NewRemoteTracker attaches an estimator to a database reached through a
// webiface.Client (an HTTP API).
func NewRemoteTracker(c *webiface.Client, aggs []*Aggregate, opts TrackerOptions) (*Tracker, error) {
	if c == nil {
		return nil, errors.New("dynagg: nil client")
	}
	return NewTrackerWithSource(c.Schema(),
		func(g int) BudgetedSession { return c.NewSession(g) }, aggs, opts)
}

// NewTrackerWithSource attaches an estimator to any session source — the
// general form behind NewTracker and NewRemoteTracker, for callers with
// custom Searcher implementations.
func NewTrackerWithSource(sch *Schema, source SessionSource, aggs []*Aggregate, opts TrackerOptions) (*Tracker, error) {
	if sch == nil || source == nil {
		return nil, errors.New("dynagg: schema and session source required")
	}
	est, err := estimator.New(string(opts.Algorithm), sch, aggs, opts.estimatorConfig())
	if err != nil {
		return nil, err
	}
	return &Tracker{est: est, newSession: source, g: opts.Budget}, nil
}

// Step consumes one round's query budget and refreshes all estimates.
func (t *Tracker) Step() error {
	return t.est.Step(t.newSession(t.g))
}

// StepSession runs one round against a caller-supplied session — useful
// for the constant-update model, where the harness wires a pre-search
// hook into the session.
func (t *Tracker) StepSession(s BudgetedSession) error { return t.est.Step(s) }

// Round returns the index of the last completed round.
func (t *Tracker) Round() int { return t.est.Round() }

// Estimate returns the current single-round estimate of the i-th
// tracked aggregate.
func (t *Tracker) Estimate(i int) (Estimate, bool) { return t.est.Estimate(i) }

// Delta returns the trans-round estimate of Q(D_j) − Q(D_{j-1}) for the
// i-th tracked aggregate.
func (t *Tracker) Delta(i int) (Estimate, bool) { return t.est.EstimateDelta(i) }

// Aggregates returns the tracked aggregate specs.
func (t *Tracker) Aggregates() []*Aggregate { return t.est.Aggregates() }

// QueriesLastRound returns the queries consumed by the last Step.
func (t *Tracker) QueriesLastRound() int { return t.est.UsedLastRound() }

// DrillDowns returns the cumulative drill-down operations performed.
func (t *Tracker) DrillDowns() int { return t.est.DrillDowns() }

// Algorithm returns the name of the underlying estimator.
func (t *Tracker) Algorithm() Algorithm { return Algorithm(t.est.Name()) }

// Save serialises the tracker's estimator state so a long-lived tracker
// survives process restarts (the pool of drill downs, per-round estimates
// and RS's history all persist). Restore with LoadTracker, re-supplying
// the same aggregates.
func (t *Tracker) Save(w io.Writer) error { return estimator.Save(t.est, w) }

// LoadTracker restores a tracker saved with Save against the given
// interface. The aggregate list must match the saved tracker's (same
// order and count); opts supplies the budget and a fresh random seed —
// estimates and drill-down state come from the snapshot, and
// opts.Algorithm and opts.DeltaTarget are ignored in favour of the
// snapshot's.
func LoadTracker(r io.Reader, iface *Iface, aggs []*Aggregate, opts TrackerOptions) (*Tracker, error) {
	if iface == nil {
		return nil, errors.New("dynagg: nil interface")
	}
	est, err := estimator.Load(r, iface.Schema(), aggs, opts.estimatorConfig())
	if err != nil {
		return nil, err
	}
	return &Tracker{
		est:        est,
		newSession: func(g int) BudgetedSession { return iface.NewSession(g) },
		g:          opts.Budget,
	}, nil
}

// AdHoc estimates an aggregate that was never registered, against the
// drill downs of a past round (the ad hoc query model of §5.1). Requires
// TrackerOptions.RetainTuples.
func (t *Tracker) AdHoc(a *Aggregate, round int) (Estimate, error) { return t.est.AdHoc(a, round) }
