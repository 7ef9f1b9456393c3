package estimator

import (
	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/schema"
)

// Restart is RESTART-ESTIMATOR: the repeated-execution baseline. Every
// round it forgets everything, draws fresh signatures, and performs
// from-root drill downs until the budget is exhausted (paper §3 intro).
// Estimates across rounds are therefore independent — which is exactly
// why it wastes budget when the database changes little.
type Restart struct {
	*base
	lastRound []*drill // this round's drills (kept one round for deltas)
	prevEst   []Estimate
	prevOK    []bool
}

// NewRestart builds the baseline estimator.
func NewRestart(sch *schema.Schema, aggs []*agg.Aggregate, cfg Config) (*Restart, error) {
	b, err := newBase("RESTART", sch, aggs, cfg)
	if err != nil {
		return nil, err
	}
	return &Restart{
		base:    b,
		prevEst: make([]Estimate, len(aggs)),
		prevOK:  make([]bool, len(aggs)),
	}, nil
}

// Step runs one round: independent drill downs until the budget dies.
// The round is planned and executed in batches (exec.go), so the walks
// may be issued concurrently without changing any estimate.
func (r *Restart) Step(sess Session) error {
	if sess.Budget() < 1 {
		return ErrNoBudget
	}
	r.round++
	startUsed := sess.Used()

	var drills []*drill
	_, err := r.runFreshPhase(sess,
		func() int { return len(drills) },
		func(d *drill) { drills = append(drills, d) })
	if err != nil {
		return err
	}
	r.used = sess.Used() - startUsed

	copy(r.prevEst, r.estimates)
	copy(r.prevOK, r.estOK)
	for i, a := range r.aggs {
		if len(drills) == 0 {
			// Keep last round's estimate rather than reporting nothing.
			continue
		}
		r.estimates[i] = meanEstimate(a, drills, i)
		r.estOK[i] = true

		// Trans-round delta: difference of two independent estimates,
		// variances add.
		if r.prevOK[i] {
			r.deltas[i] = Estimate{
				Value:    r.estimates[i].Value - r.prevEst[i].Value,
				Pair:     r.estimates[i].Pair.Sub(r.prevEst[i].Pair),
				Variance: r.estimates[i].Variance + r.prevEst[i].Variance,
				Drills:   r.estimates[i].Drills,
			}
			r.deltaOK[i] = true
		}
	}
	r.lastRound = drills
	return nil
}

// AdHoc evaluates a new aggregate over the drill downs of the last
// completed round (requires Config.RetainTuples).
func (r *Restart) AdHoc(a *agg.Aggregate, round int) (Estimate, error) {
	return adHocPair(r.lastRound, a, round)
}

var _ Estimator = (*Restart)(nil)
