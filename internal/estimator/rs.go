package estimator

import (
	"math"
	"sort"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/stats"
)

// RS is RS-ESTIMATOR (paper §4, Algorithm 2). Drill downs are grouped by
// the round they were last updated in. At each round the estimator:
//
//  1. runs ϖ bootstrap ("pilot") drill downs per group to measure the
//     per-drill update cost g_x, the per-drill variance α_x of the
//     group's estimation term, and carries the historical estimate
//     variance β_x = Var(Q̃_x);
//  2. allocates the remaining budget across groups to minimise the
//     combined estimation variance — the discrete analogue of
//     Corollary 4.3, solved exactly by greedy marginal allocation since
//     each group's precision 1/(β+α/c) is concave in c;
//  3. executes the chosen updates and new drill downs in random order
//     (so a budget death is unbiased), and
//  4. combines the per-group estimates by inverse variance
//     (Corollary 4.2).
//
// When the database barely changes, α of the updated groups collapses and
// the budget flows into new drill downs; under drastic change the
// allocation degenerates to "update everything", i.e. REISSUE (the
// Corollary 4.1 discussion). The first tracked aggregate drives the
// allocation; Config.DeltaTarget switches its target to the trans-round
// delta.
type RS struct {
	*base
	pool []*drill
	// hist[x] holds the combined estimates produced at round x (indexed
	// from 1; entry 0 unused).
	hist []histEntry
	// vm holds the smoothed variance models, one per aggregate.
	vm []varModel
}

type histEntry struct {
	est []Estimate
	ok  []bool
}

// varModel smooths the pooled per-drill variances across rounds, one per
// tracked aggregate. Combination weights must not depend on the values
// observed in the current round: with heavy-tailed Horvitz–Thompson
// estimates, a round that catches a rare high-probability-mass tuple also
// reports a huge sample variance and would be down-weighted exactly when
// it carries the most information — a systematic downward bias. Weighting
// by the previous rounds' smoothed variances removes that coupling.
type varModel struct {
	ht       float64 // per-drill variance of a fresh HT estimate
	diff     float64 // per-drill variance of a one-round paired diff
	haveHT   bool
	haveDiff bool
}

// observe folds one round's pooled sample variances into the model.
func (m *varModel) observe(ht float64, htN int, diff float64, diffN int) {
	const lambda = 0.5
	if htN >= 2 {
		if m.haveHT {
			m.ht = lambda*ht + (1-lambda)*m.ht
		} else {
			m.ht = ht
			m.haveHT = true
		}
	}
	if diffN >= 2 {
		if m.haveDiff {
			m.diff = lambda*diff + (1-lambda)*m.diff
		} else {
			m.diff = diff
			m.haveDiff = true
		}
	}
}

// htVar returns the smoothed fresh-drill variance, falling back to the
// caller's current-round pooled estimate before any history exists.
func (m *varModel) htVar(fallback float64) float64 {
	if m.haveHT {
		return m.ht
	}
	return fallback
}

// diffVarFor returns the per-drill variance of a paired diff spanning gap
// rounds. Diffs accumulate change round over round (random-walk scaling);
// a floor of 1% of the HT variance keeps history from being treated as
// exact, and before any diff has been observed the model stays
// conservative at half the HT variance.
func (m *varModel) diffVarFor(gap int, htFallback float64) float64 {
	ht := m.htVar(htFallback)
	if gap < 1 {
		gap = 1
	}
	if !m.haveDiff {
		return 0.5 * ht * float64(gap)
	}
	base := m.diff
	if floor := 0.01 * ht; base < floor {
		base = floor
	}
	return base * float64(gap)
}

// NewRS builds the reservoir-style estimator.
func NewRS(sch *schema.Schema, aggs []*agg.Aggregate, cfg Config) (*RS, error) {
	b, err := newBase("RS", sch, aggs, cfg)
	if err != nil {
		return nil, err
	}
	return &RS{base: b, hist: make([]histEntry, 1), vm: make([]varModel, len(aggs))}, nil
}

// group aggregates the per-round bookkeeping for drills last updated at
// round key (key == newGroupKey means fresh drill downs).
const newGroupKey = -1

type rsGroup struct {
	key     int
	members []*drill // unupdated members (for key != newGroupKey)
	updated []*drill // drills refreshed this round from this group
	costs   []float64

	alpha float64 // per-drill variance of this group's estimation term
	beta  float64 // variance carried from history
	g     float64 // mean per-drill query cost
	want  int     // allocation target c_x (including pilots)
}

// Step runs one round of RS-ESTIMATOR.
func (r *RS) Step(sess Session) error {
	r.round++
	startUsed := sess.Used()

	budgetDead := false

	// Retire the stalest drills so the number of live groups stays
	// bounded: Algorithm 2 pilots every group each round, and with an
	// unbounded number of last-updated rounds the pilot pass alone would
	// consume the whole budget (ϖ·j ≥ G after enough rounds), starving
	// the informative arms. A retired drill's information persists in the
	// carried estimate chain Q̃, and retirement is value-blind (purely by
	// age), so the surviving groups remain uniform random signature sets.
	r.retireStaleGroups()

	// Collect groups by last-updated round.
	byRound := make(map[int][]*drill)
	for _, d := range r.pool {
		byRound[d.cur.round] = append(byRound[d.cur.round], d)
	}
	var groups []*rsGroup
	for x, members := range byRound {
		groups = append(groups, &rsGroup{key: x, members: members})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	groups = append(groups, &rsGroup{key: newGroupKey})

	// Phase 1: pilots. Budget a fraction of G for bootstrapping so that
	// late rounds with many groups cannot starve the execution phase.
	// The whole pilot pass is planned up front (pilot sets sampled
	// without replacement via Fisher-Yates prefixes, fresh signatures
	// drawn in group order) and handed to the execution engine, which
	// may issue the walks concurrently without changing any estimate.
	pilot := r.cfg.Pilot
	if g := sess.Budget(); g > 0 && pilot*len(groups) > g/3 {
		pilot = max(1, g/(3*len(groups)))
	}
	var ops []drillOp
	var opGrp []*rsGroup
	for _, grp := range groups {
		n := pilot
		if grp.key != newGroupKey {
			n = min(n, len(grp.members))
			r.shufflePrefix(grp.members, n)
			for i := 0; i < n; i++ {
				ops = append(ops, r.planUpdate(grp.members[i]))
				opGrp = append(opGrp, grp)
			}
		} else {
			for i := 0; i < n; i++ {
				ops = append(ops, r.planFresh())
				opGrp = append(opGrp, grp)
			}
		}
	}
	results := r.runPlan(sess, ops)
	var err error
	budgetDead, err = applyResults(ops, results, func(i int, o querytree.Outcome) {
		grp := r.applyPlanned(&ops[i], opGrp[i], o)
		grp.costs = append(grp.costs, float64(o.Cost))
	})
	if err != nil {
		return err
	}
	for _, grp := range groups {
		if grp.key != newGroupKey {
			grp.members = grp.members[len(grp.updated):]
		}
	}

	// Phase 2: estimate α, β, g per group and allocate the remaining
	// budget (Corollary 4.3, solved by greedy marginal allocation).
	htVar := r.pooledHTVariance(groups, 0)
	for _, grp := range groups {
		grp.g = meanOr(grp.costs, 2)
		grp.alpha = r.groupAlpha(grp, htVar)
		grp.beta = r.groupBeta(grp)
		grp.want = len(grp.updated)
	}
	if !budgetDead {
		r.allocate(groups, float64(sess.Remaining()))
		if err := r.execute(sess, groups, &budgetDead); err != nil {
			return err
		}
	}
	r.used = sess.Used() - startUsed

	// Phase 3: combine per-group estimates (Corollary 4.2) using the
	// previous rounds' variance models, then fold this round's pooled
	// samples into the models for the next round.
	entry := histEntry{est: make([]Estimate, len(r.aggs)), ok: make([]bool, len(r.aggs))}
	for i, ag := range r.aggs {
		if est, ok := r.combineSingle(ag, groups, i); ok {
			r.estimates[i] = est
			r.estOK[i] = true
			entry.est[i] = est
			entry.ok[i] = true
		}
		if est, ok := r.combineDelta(ag, groups, i); ok {
			r.deltas[i] = est
			r.deltaOK[i] = true
		} else {
			r.deltaOK[i] = false
		}
	}
	r.hist = append(r.hist, entry)
	r.updateVarModels(groups)
	r.gcPool()
	return nil
}

// updateVarModels feeds this round's pooled per-drill HT variance and
// one-round paired-diff variance into the per-aggregate smoothers.
func (r *RS) updateVarModels(groups []*rsGroup) {
	for i, ag := range r.aggs {
		var ht, diff stats.Running
		for _, grp := range groups {
			for _, d := range grp.updated {
				ht.Add(ag.Primary(d.cur.scaled(i)))
				if grp.key == r.round-1 {
					ht2 := ag.Primary(d.cur.scaled(i)) - ag.Primary(d.prev.scaled(i))
					diff.Add(ht2)
				}
			}
		}
		r.vm[i].observe(ht.Var(), ht.N(), diff.Var(), diff.N())
	}
}

// shufflePrefix moves n uniformly chosen elements to the front of ds.
func (r *RS) shufflePrefix(ds []*drill, n int) {
	for i := 0; i < n && i < len(ds); i++ {
		j := i + r.cfg.Rand.Intn(len(ds)-i)
		ds[i], ds[j] = ds[j], ds[i]
	}
}

// pooledHTVariance estimates the per-drill variance of a plain
// Horvitz–Thompson estimate (π_j of aggregate i) pooled over every drill
// refreshed this round. Drill-down estimates are zero-inflated and
// heavy-tailed, so small per-group samples wildly underestimate their own
// variance; the pooled value anchors the rule-of-three floors below.
func (r *RS) pooledHTVariance(groups []*rsGroup, i int) float64 {
	var run stats.Running
	a := r.aggs[i]
	for _, grp := range groups {
		for _, d := range grp.updated {
			run.Add(a.Primary(d.cur.scaled(i)))
		}
	}
	return run.Var()
}

// groupAlpha returns the per-drill variance of the group's estimation
// term for the allocation target (the α of Corollary 4.3), taken from the
// smoothed variance models so that allocation does not chase this round's
// sampling noise: π_j − π_x terms carry the diff variance, fresh π_j terms
// the HT variance. Under the delta target the roles shift per §4.3's fQ
// cases (only the x = j−1 group contributes paired diffs).
func (r *RS) groupAlpha(grp *rsGroup, htVar float64) float64 {
	vm := &r.vm[0]
	if grp.key == newGroupKey {
		return vm.htVar(htVar)
	}
	if r.cfg.DeltaTarget && grp.key != r.round-1 {
		return vm.htVar(htVar)
	}
	return vm.diffVarFor(r.round-grp.key, htVar)
}

// groupBeta is the carried variance β_x of the group's estimation term.
func (r *RS) groupBeta(grp *rsGroup) float64 {
	if r.cfg.DeltaTarget {
		// Delta target: the x = j−1 group needs no historical estimate
		// (fQ = π_j − π_{j-1}), everything else carries Var(Q̃_{j-1}).
		if grp.key == r.round-1 {
			return 0
		}
		if h, ok := r.histEst(r.round-1, 0); ok {
			return h.Variance
		}
		return 0
	}
	if grp.key == newGroupKey {
		return 0
	}
	if h, ok := r.histEst(grp.key, 0); ok {
		return h.Variance
	}
	return 0
}

func (r *RS) histEst(round, i int) (Estimate, bool) {
	if round < 1 || round >= len(r.hist) {
		return Estimate{}, false
	}
	if !r.hist[round].ok[i] {
		return Estimate{}, false
	}
	return r.hist[round].est[i], true
}

// allocate chooses how many drills each group should run this round.
// It maximises Σ_x 1/(β_x + α_x/c_x) subject to Σ_x g_x·c_x ≤ budget —
// the same optimisation as Corollary 4.3, solved exactly on integers by
// greedy marginal allocation (each group's precision is concave in c_x).
func (r *RS) allocate(groups []*rsGroup, budget float64) {
	precision := func(grp *rsGroup, c int) float64 {
		if c <= 0 {
			return 0
		}
		v := grp.beta + grp.alpha/float64(c)
		if v <= 0 {
			// Degenerate zero-variance group: one drill pins it down.
			if c >= 1 {
				return math.Inf(1)
			}
			return 0
		}
		return 1 / v
	}
	for budget > 0 {
		bestIdx := -1
		bestGain := 0.0
		for idx, grp := range groups {
			if grp.g > budget {
				continue
			}
			if grp.key != newGroupKey && grp.want >= len(grp.members)+len(grp.updated) {
				continue // group exhausted
			}
			if math.IsInf(grp.alpha, 1) && grp.want >= 2 {
				// Unknown variance: sample at most two to learn it.
				continue
			}
			gain := (precision(grp, grp.want+1) - precision(grp, grp.want)) / grp.g
			if math.IsInf(grp.alpha, 1) {
				gain = math.SmallestNonzeroFloat64 // last resort only
			}
			if gain > bestGain || bestIdx == -1 && gain > 0 {
				bestGain = gain
				bestIdx = idx
			}
		}
		if bestIdx == -1 {
			// Nothing gains: spend the remainder on new drill downs,
			// which always reduce variance of the new-group term.
			groups[len(groups)-1].want += int(budget / groups[len(groups)-1].g)
			return
		}
		groups[bestIdx].want++
		budget -= groups[bestIdx].g
	}
}

// execute runs the allocated updates/new drills in random order until the
// plan completes or the budget dies (Algorithm 2's pooled execution). The
// task order is shuffled and every random choice (fresh signatures,
// member pops) drawn at plan time, so the execution engine may issue the
// walks concurrently without changing any estimate.
func (r *RS) execute(sess Session, groups []*rsGroup, budgetDead *bool) error {
	var order []*rsGroup
	for _, grp := range groups {
		extra := grp.want - len(grp.updated)
		if grp.key != newGroupKey {
			extra = min(extra, len(grp.members))
		}
		for i := 0; i < extra; i++ {
			order = append(order, grp)
		}
	}
	r.cfg.Rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Plan: pool growth is simulated so the MaxDrills cap sees exactly
	// what sequential execution would (apply order == plan order).
	poolLen := len(r.pool)
	var ops []drillOp
	var opGrp []*rsGroup
	for _, grp := range order {
		if grp.key == newGroupKey {
			if r.cfg.MaxDrills > 0 && poolLen >= r.cfg.MaxDrills {
				continue
			}
			ops = append(ops, r.planFresh())
			opGrp = append(opGrp, grp)
			poolLen++
			continue
		}
		if len(grp.members) == 0 {
			continue
		}
		// Pop a random unupdated member.
		j := r.cfg.Rand.Intn(len(grp.members))
		d := grp.members[j]
		grp.members[j] = grp.members[len(grp.members)-1]
		grp.members = grp.members[:len(grp.members)-1]
		ops = append(ops, r.planUpdate(d))
		opGrp = append(opGrp, grp)
	}

	results := r.runPlan(sess, ops)
	dead, err := applyResults(ops, results, func(i int, o querytree.Outcome) {
		r.applyPlanned(&ops[i], opGrp[i], o)
	})
	if dead {
		*budgetDead = true
	}
	return err
}

// applyPlanned folds one completed walk into its RS group: a fresh drill
// joins the pool, an update refreshes its drill; either way the drill
// counts as refreshed this round.
func (r *RS) applyPlanned(op *drillOp, grp *rsGroup, o querytree.Outcome) *rsGroup {
	if op.d == nil {
		d := r.applyFresh(op, o, r.round)
		r.pool = append(r.pool, d)
		grp.updated = append(grp.updated, d)
	} else {
		r.applyUpdate(op.d, o, r.round)
		grp.updated = append(grp.updated, op.d)
	}
	return grp
}

// groupPart is one group's contribution to the combined estimate, split
// into an independent variance component (fresh sampling noise) and a
// carried component (the historical estimate's variance, which is shared
// — not diversifiable — across groups built on the same history).
type groupPart struct {
	pair    agg.Pair
	value   float64
	indep   float64 // variance of this group's fresh term
	carried float64 // Var(Q̃_x) inherited from history (0 for new drills)
	n       int
}

// combineParts merges group parts into one estimate. Old groups share
// their history, so pooling them must not shrink the carried variance the
// way independent estimates would: old parts are combined with weights
// 1/(carried+indep) but their pooled variance is floored at the smallest
// single part's total variance; the new-drill part (truly independent) is
// then folded in harmonically. Without this distinction the reported
// variance collapses and the estimator freezes on stale history.
func combineParts(a *agg.Aggregate, parts []groupPart) (Estimate, bool) {
	if len(parts) == 0 {
		return Estimate{}, false
	}
	const tiny = 1e-30
	var olds, news []groupPart
	for _, p := range parts {
		if p.carried > 0 {
			olds = append(olds, p)
		} else {
			news = append(news, p)
		}
	}
	merge := func(ps []groupPart, floorAtBest bool) (groupPart, bool) {
		if len(ps) == 0 {
			return groupPart{}, false
		}
		var wsum float64
		var out groupPart
		best := math.Inf(1)
		for _, p := range ps {
			v := p.carried + p.indep
			if v < best {
				best = v
			}
			w := 1 / math.Max(v, tiny)
			out.pair.SumF += w * p.pair.SumF
			out.pair.Count += w * p.pair.Count
			out.value += w * p.value
			out.n += p.n
			wsum += w
		}
		out.pair.SumF /= wsum
		out.pair.Count /= wsum
		out.value /= wsum
		pooled := 1 / wsum
		if floorAtBest && pooled < best {
			pooled = best // correlated parts cannot beat the best one
		}
		out.indep = pooled
		return out, true
	}
	oldPart, haveOld := merge(olds, true)
	newPart, haveNew := merge(news, false)
	var final []groupPart
	if haveOld {
		final = append(final, oldPart)
	}
	if haveNew {
		final = append(final, newPart)
	}
	out, _ := merge(final, false)
	return Estimate{
		Value:    a.Finalize(out.pair),
		Pair:     out.pair,
		Variance: out.indep,
		Drills:   out.n,
	}, true
}

// combineSingle produces the round's single-round estimate for aggregate
// i by combining per-group estimates (Corollary 4.2, with the
// correlation-aware pooling described at combineParts).
func (r *RS) combineSingle(a *agg.Aggregate, groups []*rsGroup, i int) (Estimate, bool) {
	htVar := r.pooledHTVariance(groups, i)
	var parts []groupPart
	for _, grp := range groups {
		n := len(grp.updated)
		if n == 0 {
			continue
		}
		var diffPair agg.Pair
		for _, d := range grp.updated {
			cs := d.cur.scaled(i)
			if grp.key == newGroupKey {
				diffPair.Add(cs)
			} else {
				diffPair.Add(cs.Sub(d.prev.scaled(i)))
			}
		}
		fn := float64(n)
		meanPair := agg.Pair{SumF: diffPair.SumF / fn, Count: diffPair.Count / fn}

		if grp.key == newGroupKey {
			parts = append(parts, groupPart{
				pair:  meanPair,
				value: a.Primary(meanPair),
				indep: r.vm[i].htVar(htVar) / fn,
				n:     n,
			})
			continue
		}
		h, ok := r.histEst(grp.key, i)
		if !ok {
			continue // no usable historical estimate for this group
		}
		pair := agg.Pair{SumF: h.Pair.SumF + meanPair.SumF, Count: h.Pair.Count + meanPair.Count}
		parts = append(parts, groupPart{
			pair:    pair,
			value:   a.Primary(pair),
			indep:   r.vm[i].diffVarFor(r.round-grp.key, htVar) / fn,
			carried: math.Max(h.Variance, 1e-12),
			n:       n,
		})
	}
	return combineParts(a, parts)
}

// combineDelta estimates Q(D_j) − Q(D_{j-1}) (§4.3's fQ cases): drills
// last updated at j−1 contribute direct paired diffs (no carried
// variance); every other group contributes its single-round estimate
// minus Q̃_{j-1}, which carries the shared Var(Q̃_{j-1}).
func (r *RS) combineDelta(a *agg.Aggregate, groups []*rsGroup, i int) (Estimate, bool) {
	if r.round < 2 {
		return Estimate{}, false
	}
	prevH, havePrev := r.histEst(r.round-1, i)
	htVar := r.pooledHTVariance(groups, i)

	var parts []groupPart
	for _, grp := range groups {
		n := len(grp.updated)
		if n == 0 {
			continue
		}
		if grp.key == r.round-1 {
			// Direct paired diff: fQ = π_j − π_{j-1}, no history carried.
			var diffPair agg.Pair
			for _, d := range grp.updated {
				diffPair.Add(d.cur.scaled(i).Sub(d.prev.scaled(i)))
			}
			fn := float64(n)
			meanPair := agg.Pair{SumF: diffPair.SumF / fn, Count: diffPair.Count / fn}
			parts = append(parts, groupPart{
				pair:  meanPair,
				value: a.Primary(meanPair),
				indep: r.vm[i].diffVarFor(1, htVar) / fn,
				n:     n,
			})
			continue
		}
		if !havePrev {
			continue
		}
		// fQ = (group's estimate of Q_j) − Q̃_{j-1}.
		var carried float64 // Var(Q̃_x) carried by old groups
		var hist Estimate
		if grp.key != newGroupKey {
			var ok bool
			hist, ok = r.histEst(grp.key, i)
			if !ok {
				continue
			}
			carried = hist.Variance
		}
		var curPair agg.Pair
		for _, d := range grp.updated {
			cs := d.cur.scaled(i)
			if grp.key == newGroupKey {
				curPair.Add(cs)
			} else {
				ps := d.prev.scaled(i)
				curPair.Add(agg.Pair{
					SumF:  hist.Pair.SumF + cs.SumF - ps.SumF,
					Count: hist.Pair.Count + cs.Count - ps.Count,
				})
			}
		}
		fn := float64(n)
		meanPair := agg.Pair{SumF: curPair.SumF/fn - prevH.Pair.SumF, Count: curPair.Count/fn - prevH.Pair.Count}
		var sv float64
		if grp.key == newGroupKey {
			sv = r.vm[i].htVar(htVar)
		} else {
			sv = r.vm[i].diffVarFor(r.round-grp.key, htVar)
		}
		parts = append(parts, groupPart{
			pair:    meanPair,
			value:   a.Primary(meanPair),
			indep:   sv / fn,
			carried: carried + math.Max(prevH.Variance, 1e-12),
			n:       n,
		})
	}
	return combineParts(a, parts)
}

// maxLiveGroups bounds the number of distinct last-updated rounds kept in
// the pool (plus the new-drill group formed each round).
const maxLiveGroups = 3

// retireStaleGroups drops drills whose last update is older than the
// maxLiveGroups most recent distinct rounds present in the pool.
func (r *RS) retireStaleGroups() {
	seen := map[int]bool{}
	for _, d := range r.pool {
		seen[d.cur.round] = true
	}
	if len(seen) <= maxLiveGroups {
		return
	}
	rounds := make([]int, 0, len(seen))
	for x := range seen {
		rounds = append(rounds, x)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(rounds)))
	cutoff := rounds[maxLiveGroups-1]
	kept := r.pool[:0]
	for _, d := range r.pool {
		if d.cur.round >= cutoff {
			kept = append(kept, d)
		}
	}
	r.pool = kept
}

// gcPool bounds memory: when MaxDrills is set, drop the stalest drills.
func (r *RS) gcPool() {
	if r.cfg.MaxDrills <= 0 || len(r.pool) <= r.cfg.MaxDrills {
		return
	}
	sort.SliceStable(r.pool, func(i, j int) bool { return r.pool[i].cur.round > r.pool[j].cur.round })
	r.pool = r.pool[:r.cfg.MaxDrills]
}

// AdHoc evaluates a new aggregate against the retained tuples of any past
// round still held by the pool (requires Config.RetainTuples).
func (r *RS) AdHoc(a *agg.Aggregate, round int) (Estimate, error) {
	return adHocPair(r.pool, a, round)
}

var _ Estimator = (*RS)(nil)

// meanOr returns the mean of xs, or def when xs is empty.
func meanOr(xs []float64, def float64) float64 {
	if len(xs) == 0 {
		return def
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
