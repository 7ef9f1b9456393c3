// Package estimator implements the paper's three aggregate estimators for
// dynamic hidden web databases:
//
//   - RESTART-ESTIMATOR — the baseline: rerun the static drill-down
//     algorithm of Dasgupta et al. [13] from scratch every round.
//   - REISSUE-ESTIMATOR (paper §3, Algorithm 1) — keep the signature set
//     fixed across rounds and *update* each drill down from its previous
//     top non-overflowing node, drilling down or rolling up as needed.
//   - RS-ESTIMATOR (paper §4, Algorithm 2) — a reservoir-inspired
//     estimator that spends a small bootstrap budget measuring how much
//     the database changed, optimally splits the remaining budget between
//     updating old drill downs and starting new ones (Corollary 4.3), and
//     combines per-group estimates by inverse variance (Corollary 4.2).
//
// All estimators track one or more aggregates over the same drill-down
// pool and expose both single-round estimates and the trans-round delta
// Q(D_j) − Q(D_{j-1}).
//
// Every Step is split into deterministic PLANNING (ordered batches of
// drill-down walks, all randomness drawn up front from Config.Rand) and
// EXECUTION (exec.go), which may issue a batch's walks concurrently
// against a concurrent-safe session (Config.Parallelism). Estimates are
// byte-identical for every worker count.
package estimator

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
)

// Config carries the knobs shared by all estimators.
type Config struct {
	// Rand drives every random choice (signatures, update order). Required.
	Rand *rand.Rand
	// Pilot is RS-ESTIMATOR's ϖ: bootstrap drill downs per group per
	// round. Defaults to 10 (the paper's default setting).
	Pilot int
	// RetainTuples keeps the tuples returned by each drill down's top
	// node, enabling ad hoc aggregates over past rounds (paper §5.1) at
	// the price of memory.
	RetainTuples bool
	// MaxDrills caps the total number of live drill downs an estimator
	// maintains (0 = no cap). Guards memory in very long runs, and ends
	// a RESTART or REISSUE round on a session without a budget, which
	// they refuse with ErrUnboundedRound when it is 0.
	MaxDrills int
	// BroadMatchNull must mirror the database's NULL policy (paper §5
	// "Other Issues"): under broad match a NULL tuple is returned by
	// every sibling branch of the drilled attribute, so its retrieval
	// probability is |Ui| times higher and its Horvitz–Thompson weight
	// must be divided accordingly.
	BroadMatchNull bool
	// Parallelism bounds how many of a round's planned drill-down walks
	// the execution engine (exec.go) issues concurrently against the
	// session. 0 reads DYNAGG_ESTIMATOR_WORKERS, defaulting to 1
	// (sequential). Estimates are byte-identical for every value; the
	// engine silently falls back to 1 when the session is not safe for
	// concurrent Search calls.
	Parallelism int
	// DeltaTarget makes RS allocate its budget to minimise the variance
	// of the trans-round delta Q(D_j) − Q(D_{j-1}) instead of the
	// single-round aggregate (Figs. 15–17). RESTART and REISSUE ignore it.
	DeltaTarget bool
}

func (c Config) withDefaults() Config {
	if c.Pilot <= 0 {
		c.Pilot = 10
	}
	if c.Parallelism <= 0 {
		if v, _ := strconv.Atoi(os.Getenv("DYNAGG_ESTIMATOR_WORKERS")); v > 0 {
			c.Parallelism = v
		} else {
			c.Parallelism = 1
		}
	}
	return c
}

// Estimate is one aggregate's estimate at one round.
type Estimate struct {
	// Value is the estimated aggregate.
	Value float64
	// Pair is the estimated (Σf, Σ1) pair behind Value.
	Pair agg.Pair
	// Variance estimates the variance of the aggregate's primary scalar
	// (count component for COUNT, sum component otherwise); 0 when it
	// cannot be assessed (fewer than two contributing drill downs).
	Variance float64
	// Drills is the number of drill downs contributing.
	Drills int
}

// Session is the budgeted per-round query capability an estimator
// consumes. *hiddendb.Session implements it, for simulated databases and
// (through webiface.Client.NewSession) for databases behind an HTTP API.
type Session interface {
	hiddendb.Searcher
	// Used returns the queries issued so far in this round.
	Used() int
	// Remaining returns the unused budget (negative when unlimited).
	Remaining() int
	// Budget returns the round's budget G (<= 0 when unlimited).
	Budget() int
}

// Estimator is the common behaviour of RESTART, REISSUE and RS.
type Estimator interface {
	// Name identifies the algorithm ("RESTART", "REISSUE", "RS").
	Name() string
	// Step consumes one round's query budget from the session and
	// refreshes all estimates. Rounds are numbered from 1.
	Step(sess Session) error
	// Round returns the index of the last completed round (0 before the
	// first Step).
	Round() int
	// Estimate returns the current single-round estimate for the i-th
	// aggregate; ok is false if no estimate exists yet.
	Estimate(i int) (est Estimate, ok bool)
	// EstimateDelta returns the trans-round estimate of
	// Q(D_j) − Q(D_{j-1}); ok is false before round 2.
	EstimateDelta(i int) (est Estimate, ok bool)
	// Aggregates returns the tracked aggregate specs.
	Aggregates() []*agg.Aggregate
	// UsedLastRound returns the queries consumed by the last Step.
	UsedLastRound() int
	// DrillDowns returns the cumulative number of drill-down operations
	// (fresh or update) completed over the estimator's lifetime.
	DrillDowns() int
	// WastedQueries returns the cumulative number of queries spent on
	// speculatively issued walks whose results were never applied: when a
	// concurrently executed wave aborts on an error, walks later in the
	// wave may already have run (exec.go). Sequential execution never
	// wastes a query, so this is exactly the price of Parallelism > 1 on
	// rounds that end abnormally.
	WastedQueries() int
	// AdHoc evaluates an aggregate that was not tracked at Step time
	// against the retained tuples of the drill downs current at a past
	// round (the ad hoc query model of §5.1). It requires
	// Config.RetainTuples.
	AdHoc(a *agg.Aggregate, round int) (Estimate, error)
}

// New builds the named estimator: "RESTART", "REISSUE" or "RS". An empty
// name means RS.
func New(algo string, sch *schema.Schema, aggs []*agg.Aggregate, cfg Config) (Estimator, error) {
	var e Estimator
	var err error
	switch algo {
	case "RESTART":
		e, err = NewRestart(sch, aggs, cfg)
	case "REISSUE":
		e, err = NewReissue(sch, aggs, cfg)
	case "RS", "":
		e, err = NewRS(sch, aggs, cfg)
	default:
		err = fmt.Errorf("estimator: unknown algorithm %q", algo)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// contribution is the state of one drill down at one round: its top
// non-overflowing node and the raw aggregate pairs of that node's result.
type contribution struct {
	round  int
	depth  int
	prob   float64
	pairs  []agg.Pair // one per tracked aggregate, raw (unscaled)
	tuples []*schema.Tuple
}

// scaled returns the HT-inflated pair for aggregate i.
func (c *contribution) scaled(i int) agg.Pair { return c.pairs[i].Scale(c.prob) }

// drill is one signature and its update history (current and previous
// contributions). With Config.RetainTuples, every superseded contribution
// is archived in hist so ad hoc aggregates can be evaluated against any
// past round (§5.1).
type drill struct {
	sig  querytree.Signature
	cur  contribution
	prev contribution // prev.round == 0 means none
	hist []contribution
}

// at returns the drill's contribution for the given round, if retained.
func (d *drill) at(round int) *contribution {
	switch {
	case d.cur.round == round:
		return &d.cur
	case d.prev.round == round:
		return &d.prev
	}
	for i := len(d.hist) - 1; i >= 0; i-- {
		if d.hist[i].round == round {
			return &d.hist[i]
		}
	}
	return nil
}

// base holds the machinery shared by the three estimators.
type base struct {
	name   string
	sch    *schema.Schema
	aggs   []*agg.Aggregate
	tree   *querytree.Tree
	cfg    Config
	round  int
	used   int
	drills int // lifetime completed drill-down operations
	wasted int // lifetime queries spent on never-applied speculative walks

	estimates []Estimate
	estOK     []bool
	deltas    []Estimate
	deltaOK   []bool
}

func newBase(name string, sch *schema.Schema, aggs []*agg.Aggregate, cfg Config) (*base, error) {
	if len(aggs) == 0 {
		return nil, errors.New("estimator: at least one aggregate required")
	}
	if cfg.Rand == nil {
		return nil, errors.New("estimator: Config.Rand is required")
	}
	cfg = cfg.withDefaults()
	return &base{
		name:      name,
		sch:       sch,
		aggs:      aggs,
		tree:      treeFor(sch, aggs),
		cfg:       cfg,
		estimates: make([]Estimate, len(aggs)),
		estOK:     make([]bool, len(aggs)),
		deltas:    make([]Estimate, len(aggs)),
		deltaOK:   make([]bool, len(aggs)),
	}, nil
}

// treeFor builds the drill-down tree. When every tracked aggregate shares
// the same conjunctive selection condition, the tree is the subtree under
// it (paper §3.3); otherwise the full tree is used and each aggregate's
// selection is applied result-side, which stays unbiased per §2.2.
func treeFor(sch *schema.Schema, aggs []*agg.Aggregate) *querytree.Tree {
	shared := true
	for _, a := range aggs {
		if !a.HasSelQuery {
			shared = false
			break
		}
	}
	if shared {
		key := aggs[0].SelQuery.Key()
		for _, a := range aggs[1:] {
			if a.SelQuery.Key() != key {
				shared = false
				break
			}
		}
		if shared {
			return querytree.NewWithSelection(sch, aggs[0].SelQuery)
		}
	}
	return querytree.New(sch)
}

func (b *base) Name() string                 { return b.name }
func (b *base) Round() int                   { return b.round }
func (b *base) Aggregates() []*agg.Aggregate { return b.aggs }
func (b *base) UsedLastRound() int           { return b.used }
func (b *base) DrillDowns() int              { return b.drills }
func (b *base) WastedQueries() int           { return b.wasted }

func (b *base) Estimate(i int) (Estimate, bool) {
	if i < 0 || i >= len(b.aggs) || !b.estOK[i] {
		return Estimate{}, false
	}
	return b.estimates[i], true
}

func (b *base) EstimateDelta(i int) (Estimate, bool) {
	if i < 0 || i >= len(b.aggs) || !b.deltaOK[i] {
		return Estimate{}, false
	}
	return b.deltas[i], true
}

// contributionOf evaluates all tracked aggregates on a drill outcome.
func (b *base) contributionOf(round int, o querytree.Outcome) contribution {
	c := contribution{
		round: round,
		depth: o.Depth,
		prob:  o.P(b.tree),
		pairs: make([]agg.Pair, len(b.aggs)),
	}
	if !b.cfg.BroadMatchNull {
		for i, a := range b.aggs {
			c.pairs[i] = a.PairOfTuples(o.Result.Tuples)
		}
	} else {
		// Broad-match NULL semantics: a tuple with NULL in a drilled
		// attribute is returned under every branch of that level, so its
		// per-tuple weight shrinks by the level's domain size (§5).
		for i, a := range b.aggs {
			var p agg.Pair
			for _, t := range o.Result.Tuples {
				tp := a.PairOfTuples([]*schema.Tuple{t})
				if w := b.nullWeight(t, o.Depth); w != 1 {
					tp = agg.Pair{SumF: tp.SumF * w, Count: tp.Count * w}
				}
				p.Add(tp)
			}
			c.pairs[i] = p
		}
	}
	if b.cfg.RetainTuples {
		c.tuples = o.Result.Tuples
	}
	return c
}

// nullWeight returns 1/∏|Ui| over the drilled levels above depth where t
// holds NULL — the broad-match retrieval-probability correction.
func (b *base) nullWeight(t *schema.Tuple, depth int) float64 {
	w := 1.0
	for lvl := 0; lvl < depth; lvl++ {
		attr := b.tree.LevelAttr(lvl)
		if t.Vals[attr] == schema.NullCode {
			w /= float64(b.sch.DomainSize(attr))
		}
	}
	return w
}

// meanEstimate averages the scaled contributions of the given drills for
// aggregate i (all drills must have cur.round == round).
func meanEstimate(a *agg.Aggregate, drills []*drill, i int) Estimate {
	if len(drills) == 0 {
		return Estimate{}
	}
	var pair agg.Pair
	var primaries []float64
	for _, d := range drills {
		sc := d.cur.scaled(i)
		pair.Add(sc)
		primaries = append(primaries, a.Primary(sc))
	}
	n := float64(len(drills))
	mean := agg.Pair{SumF: pair.SumF / n, Count: pair.Count / n}
	est := Estimate{
		Value:  a.Finalize(mean),
		Pair:   mean,
		Drills: len(drills),
	}
	est.Variance = sampleVarOfMean(primaries)
	return est
}

// sampleVarOfMean returns the Bessel-corrected variance of the mean of xs.
func sampleVarOfMean(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return ss / float64(n-1) / float64(n)
}

// pairedDelta estimates Q(D_j) − Q(D_{j-1}) for aggregate i from drills
// holding contributions at both rounds j and j−1.
func pairedDelta(a *agg.Aggregate, drills []*drill, i, j int) (Estimate, bool) {
	var curSum, prevSum agg.Pair
	var diffs []float64
	n := 0
	for _, d := range drills {
		// prev.round == 0 means the drill has never been updated.
		if d.prev.round == 0 || d.cur.round != j || d.prev.round != j-1 {
			continue
		}
		cs, ps := d.cur.scaled(i), d.prev.scaled(i)
		curSum.Add(cs)
		prevSum.Add(ps)
		diffs = append(diffs, a.Primary(cs)-a.Primary(ps))
		n++
	}
	if n == 0 {
		return Estimate{}, false
	}
	fn := float64(n)
	curMean := agg.Pair{SumF: curSum.SumF / fn, Count: curSum.Count / fn}
	prevMean := agg.Pair{SumF: prevSum.SumF / fn, Count: prevSum.Count / fn}
	est := Estimate{
		Value:    a.Finalize(curMean) - a.Finalize(prevMean),
		Pair:     curMean.Sub(prevMean),
		Drills:   n,
		Variance: sampleVarOfMean(diffs),
	}
	return est, true
}

// errIsBudget reports whether err means the round's budget ran out — the
// normal way a round ends, not a failure.
func errIsBudget(err error) bool {
	return errors.Is(err, hiddendb.ErrBudgetExhausted)
}

// adHocPair evaluates a NEW aggregate (not tracked at Step time) against
// the retained tuples of the drill downs current at the given round: the
// body of every estimator's AdHoc. The aggregate must not narrow the tree
// selection (its own selection is applied result-side).
func adHocPair(drills []*drill, a *agg.Aggregate, round int) (Estimate, error) {
	var pair agg.Pair
	var primaries []float64
	n := 0
	for _, d := range drills {
		c := d.at(round)
		if c == nil {
			continue
		}
		if c.tuples == nil && len(c.pairs) > 0 && c.pairs[0].Count > 0 {
			return Estimate{}, errors.New("estimator: ad hoc queries need Config.RetainTuples")
		}
		sc := a.PairOfTuples(c.tuples).Scale(c.prob)
		pair.Add(sc)
		primaries = append(primaries, a.Primary(sc))
		n++
	}
	if n == 0 {
		return Estimate{}, fmt.Errorf("estimator: no drill downs retained for round %d", round)
	}
	fn := float64(n)
	mean := agg.Pair{SumF: pair.SumF / fn, Count: pair.Count / fn}
	return Estimate{
		Value:    a.Finalize(mean),
		Pair:     mean,
		Drills:   n,
		Variance: sampleVarOfMean(primaries),
	}, nil
}
