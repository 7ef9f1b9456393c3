package estimator

import (
	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
)

// Reissue is REISSUE-ESTIMATOR (paper §3, Algorithm 1). The signature set
// is generated once; each subsequent round every previous drill down is
// *updated* from its last top non-overflowing node — saving the whole
// root-to-q path when nothing changed — and the leftover budget starts new
// drill downs that join the signature set.
type Reissue struct {
	*base
	pool []*drill
}

// NewReissue builds the query-reissuing estimator.
func NewReissue(sch *schema.Schema, aggs []*agg.Aggregate, cfg Config) (*Reissue, error) {
	b, err := newBase("REISSUE", sch, aggs, cfg)
	if err != nil {
		return nil, err
	}
	return &Reissue{base: b}, nil
}

// Step runs one round: update every previous drill down (random order, so
// a mid-round budget death does not systematically favour old signatures),
// then spend the remainder on new drill downs. Each phase is planned up
// front and handed to the execution engine (exec.go), which may issue the
// walks concurrently without changing any estimate.
func (r *Reissue) Step(sess Session) error {
	if sess.Budget() < 1 {
		return ErrNoBudget
	}
	r.round++
	startUsed := sess.Used()

	// Phase 1: update all previous drill downs.
	order := r.cfg.Rand.Perm(len(r.pool))
	ops := make([]drillOp, len(order))
	for i, idx := range order {
		ops[i] = r.planUpdate(r.pool[idx])
	}
	results := r.runPlan(sess, ops)
	budgetDead, err := applyResults(ops, results, func(i int, o querytree.Outcome) {
		r.applyUpdate(ops[i].d, o, r.round)
	})
	if err != nil {
		return err
	}

	// Phase 2: new drill downs with the remaining budget.
	if !budgetDead {
		if _, err := r.runFreshPhase(sess,
			func() int { return len(r.pool) },
			func(d *drill) { r.pool = append(r.pool, d) }); err != nil {
			return err
		}
	}
	r.used = sess.Used() - startUsed

	// Estimates from drills current at this round (stale ones — possible
	// after a budget death — are excluded to avoid mixing database states).
	var current []*drill
	for _, d := range r.pool {
		if d.cur.round == r.round {
			current = append(current, d)
		}
	}
	for i, a := range r.aggs {
		if len(current) > 0 {
			r.estimates[i] = meanEstimate(a, current, i)
			r.estOK[i] = true
		}
		if est, ok := pairedDelta(a, r.pool, i, r.round); ok {
			r.deltas[i] = est
			r.deltaOK[i] = true
		} else {
			r.deltaOK[i] = false
		}
	}
	return nil
}

// AdHoc evaluates a new aggregate against the retained tuples of any past
// round still held by the pool (requires Config.RetainTuples).
func (r *Reissue) AdHoc(a *agg.Aggregate, round int) (Estimate, error) {
	return adHocPair(r.pool, a, round)
}

var _ Estimator = (*Reissue)(nil)

// Ensure interface conformance for the session type we actually pass in.
var _ hiddendb.Searcher = (*hiddendb.Session)(nil)
