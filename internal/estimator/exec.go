package estimator

import (
	"sync"
	"sync/atomic"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
)

// This file is the round-level execution engine behind the plan/execute
// split. Estimators no longer interleave random choices with query
// issuance: each phase of a Step first PLANS an ordered batch of
// drill-down walks — drawing every random bit (signatures, pilot
// selections, execution shuffles) from Config.Rand up front — and then
// hands the batch to runPlan, which may issue the walks concurrently.
//
// The invariant runPlan maintains is that its outcomes are byte-identical
// to running the same ordered batch sequentially against the shared
// budgeted session, for every worker count:
//
//   - A walk's outcome depends only on its signature, its start depth and
//     the database state, never on sibling walks: within a round the
//     round-update model freezes the data (local Iface answers from one
//     immutable snapshot; a remote dynagg-serve holds each version frozen
//     between churn ticks), so walks commute.
//   - Budget is the only shared resource. runPlan admits a wave of walks
//     only when the sum of their worst-case costs fits into the session's
//     remaining budget — such walks can never die of budget, so their
//     completion order is irrelevant — and once the remaining budget
//     drops below a walk's worst case it falls back to running walks one
//     at a time with the entire remaining budget, which is exactly the
//     sequential shared-budget semantics, including the final walk dying
//     mid-drill with ErrBudgetExhausted.
//   - Results are applied by the caller in plan (drill-index) order, so
//     pool mutation and float accumulation order never depend on timing.
//
// Sessions with a pre-search hook (the constant-update model mutates the
// database per query, making walk outcomes order-dependent) are detected
// and executed with one worker, where the engine degenerates to the
// plain sequential loop.
//
// The byte-identity guarantee presumes the round budget is enforced by
// the SESSION (client side) — the only budget the wave admission can
// see. A remote database's own per-key budget is an external shared
// resource charged in arrival order: if IT runs out mid-wave (HTTP 429 →
// webiface.BudgetExhaustedError), the round still ends as a normal
// budget death, but which of the wave's walks completed first is
// timing-dependent — the same nondeterminism any live site exhibits.
// Keep remote runs reproducible by aligning budgets: session G no larger
// than the server's per-key round allocation.

// drillOp is one planned drill-down walk: either a fresh from-root drill
// for a signature drawn at plan time, or an update of an existing drill
// from its last known depth.
type drillOp struct {
	d         *drill              // update target; nil ⇒ fresh drill
	sig       querytree.Signature // walk signature (copied from d for updates)
	prevDepth int                 // update: depth of the previous top node
	maxCost   int                 // worst-case queries this walk can issue
}

// opResult is one walk's outcome. err is nil on success, unwraps to
// hiddendb.ErrBudgetExhausted on a budget death, and is terminal
// otherwise; ran is false for ops skipped after an earlier op's error.
// used counts the queries the walk issued (tracked through its
// allowance), so aborted waves can account their speculative waste.
type opResult struct {
	outcome querytree.Outcome
	err     error
	ran     bool
	used    int
}

// planFresh draws the next fresh drill-down op from the round RNG.
func (b *base) planFresh() drillOp {
	sig := b.tree.RandomSignature(b.cfg.Rand)
	return drillOp{sig: sig, maxCost: b.tree.Depth() + 1}
}

// planUpdate plans an update walk of d from its current depth. Worst case
// is one reissue plus either a full drill down to the leaf or a full roll
// up to the root.
func (b *base) planUpdate(d *drill) drillOp {
	pd := d.cur.depth
	return drillOp{
		d:         d,
		sig:       d.sig,
		prevDepth: pd,
		maxCost:   1 + max(pd, b.tree.Depth()-pd),
	}
}

// execWorkers resolves how many goroutines may issue this round's walks
// concurrently: Config.Parallelism, clamped to 1 when the session does
// not declare itself safe for concurrent Search calls.
func (b *base) execWorkers(sess Session) int {
	w := b.cfg.Parallelism
	if w <= 1 {
		return 1
	}
	cs, ok := sess.(hiddendb.ConcurrentSearcher)
	if !ok || !cs.ConcurrentSearchable() {
		return 1
	}
	return w
}

// runWalk executes one planned walk against s.
func runWalk(s hiddendb.Searcher, t *querytree.Tree, op *drillOp) opResult {
	var o querytree.Outcome
	var err error
	if op.d == nil {
		o, err = querytree.DrillFromRoot(s, t, op.sig)
	} else {
		o, err = querytree.UpdateDrill(s, t, op.sig, op.prevDepth)
	}
	return opResult{outcome: o, err: err, ran: true}
}

// runPlan executes the planned walks in op order against the shared
// session sess. See the file comment for the equivalence argument;
// callers apply results strictly in op order and stop at the first
// error.
func (b *base) runPlan(sess Session, ops []drillOp) []opResult {
	results := make([]opResult, len(ops))
	workers := b.execWorkers(sess)
	if workers <= 1 {
		for i := range ops {
			results[i] = runWalk(sess, b.tree, &ops[i])
			if results[i].err != nil {
				break
			}
		}
		return results
	}
	i := 0
	for i < len(ops) {
		rem := sess.Remaining()
		wave, budget := 0, rem
		for i+wave < len(ops) && ops[i+wave].maxCost <= budget {
			budget -= ops[i+wave].maxCost
			wave++
		}
		if wave == 0 {
			// Tail: the next walk runs alone with everything that remains,
			// so a death here is exactly a sequential shared-budget death.
			a := &allowance{inner: sess, left: rem}
			results[i] = runWalk(a, b.tree, &ops[i])
			results[i].used = a.used
			if results[i].err != nil {
				return results
			}
			i++
			continue
		}
		b.runWave(workers, sess, ops[i:i+wave], results[i:i+wave])
		for j := i; j < i+wave; j++ {
			if results[j].err != nil {
				// First-in-order error ends the plan (a server-side budget
				// death or a terminal failure); walks after it may have run
				// speculatively, and their results are never applied — count
				// the queries they issued as the waste of concurrency. A
				// sequential run would have stopped at walk j and issued
				// none of them (the ROADMAP speculative-issuance item).
				for k := j + 1; k < i+wave; k++ {
					if results[k].ran {
						b.wasted += results[k].used
					}
				}
				return results
			}
		}
		i += wave
	}
	return results
}

// runWave issues one budget-covered wave of walks on a bounded worker
// pool. Every walk in the wave holds a full worst-case allowance, so none
// can exhaust the shared budget.
func (b *base) runWave(workers int, sess Session, ops []drillOp, results []opResult) {
	if workers > len(ops) {
		workers = len(ops)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				a := &allowance{inner: sess, left: ops[i].maxCost}
				results[i] = runWalk(a, b.tree, &ops[i])
				results[i].used = a.used
			}
		}()
	}
	wg.Wait()
}

// allowance caps the queries one walk may issue. Wave walks carry their
// worst-case cost (never binding — a guard); the tail walk carries the
// session's entire remaining budget, making its death identical to a
// shared-budget death. An allowance belongs to one walk goroutine.
type allowance struct {
	inner hiddendb.Searcher
	left  int // queries the walk may still issue
	used  int // queries actually handed to inner
}

func (a *allowance) Search(q hiddendb.Query) (hiddendb.Result, error) {
	if a.left <= 0 {
		return hiddendb.Result{}, hiddendb.ErrBudgetExhausted
	}
	a.left--
	a.used++
	return a.inner.Search(q)
}

func (a *allowance) K() int                 { return a.inner.K() }
func (a *allowance) Schema() *schema.Schema { return a.inner.Schema() }

// applyResults consumes a plan's results strictly in op order, invoking
// apply for every completed walk. The first error classifies the phase's
// end: a budget death returns budgetDead=true (the normal way a round
// phase ends); anything else is returned as a terminal error. Walks
// after the first error are never applied.
func applyResults(ops []drillOp, results []opResult, apply func(i int, o querytree.Outcome)) (budgetDead bool, err error) {
	for i := range ops {
		res := &results[i]
		if !res.ran {
			// Defensive: an un-run op only follows an erroring one, which
			// returns below first.
			return true, nil
		}
		if res.err != nil {
			if errIsBudget(res.err) {
				return true, nil
			}
			return false, res.err
		}
		apply(i, res.outcome)
	}
	return false, nil
}

// applyFresh materialises a completed fresh-drill walk into a new drill.
// Called in plan order only.
func (b *base) applyFresh(op *drillOp, o querytree.Outcome, round int) *drill {
	b.drills++
	return &drill{sig: op.sig, cur: b.contributionOf(round, o)}
}

// applyUpdate folds a completed update walk back into its drill. Called
// in plan order only.
func (b *base) applyUpdate(d *drill, o querytree.Outcome, round int) {
	b.drills++
	if b.cfg.RetainTuples && d.prev.round != 0 {
		d.hist = append(d.hist, d.prev)
	}
	d.prev = d.cur
	d.cur = b.contributionOf(round, o)
}

// runFreshPhase drills fresh signatures until the budget dies or the pool
// cap is hit, invoking apply for every completed drill in plan order. The
// batch size is a function of the remaining budget only — never of the
// worker count — so the signature stream is identical for every
// Parallelism. Returns whether the phase ended in a budget death.
func (b *base) runFreshPhase(sess Session, poolLen func() int, apply func(*drill)) (bool, error) {
	for {
		// Enough full-allowance drills to cover the budget, plus the one
		// that may die on the remainder.
		n := sess.Remaining()/(b.tree.Depth()+1) + 1
		if b.cfg.MaxDrills > 0 {
			if head := b.cfg.MaxDrills - poolLen(); head < n {
				n = head
			}
		}
		if n <= 0 {
			return false, nil
		}
		ops := make([]drillOp, n)
		for i := range ops {
			ops[i] = b.planFresh()
		}
		results := b.runPlan(sess, ops)
		dead, err := applyResults(ops, results, func(i int, o querytree.Outcome) {
			apply(b.applyFresh(&ops[i], o, b.round))
		})
		if dead || err != nil {
			return dead, err
		}
	}
}
