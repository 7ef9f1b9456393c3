package experiments

import (
	"fmt"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
)

// autosParams are the Yahoo! Autos experiment parameters, scaled down by
// default and exact at full scale.
type autosParams struct {
	n, initial, insert int
	deleteFrac         float64
	k, g, rounds, m    int
	trials             int
	scaleNote          string
}

func autosDefaults(opt Options) autosParams {
	if opt.FullScale {
		return autosParams{
			n: workload.AutosSize, initial: 170000, insert: 300, deleteFrac: 0.001,
			k: 1000, g: 500, rounds: 50, m: 38, trials: opt.trials(1),
			scaleNote: "full scale (paper parameters)",
		}
	}
	return autosParams{
		n: 40000, initial: 36000, insert: 300, deleteFrac: 0.001,
		k: 250, g: 500, rounds: 50, m: 38, trials: opt.trials(3),
		scaleNote: "reduced scale (n=40k, k=250); DYNAGG_FULL_SCALE=1 for paper parameters",
	}
}

func (p autosParams) dataset() func(int64) *workload.Dataset {
	n, m := p.n, p.m
	return func(seed int64) *workload.Dataset { return workload.AutosLikeN(seed, n, m) }
}

func countAggs(*schema.Schema) []*agg.Aggregate {
	return []*agg.Aggregate{agg.CountAll()}
}

func init() {
	register("fig2", Fig2)
	register("fig3", Fig3)
	register("fig5", Fig5)
	register("fig6", Fig6)
	register("fig7", Fig7)
	register("fig8", Fig8)
	register("fig9", Fig9)
	register("fig10", Fig10)
	register("fig11", Fig11)
	register("fig12", Fig12)
	register("fig13", Fig13)
}

// Fig2 — relative error of COUNT(*) per round under the default schedule.
func Fig2(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
		K:        p.k, G: p.g, Rounds: p.rounds,
		Aggs: countAggs,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig2", Title: "Relative error of COUNT(*) vs round (default schedule)",
		XLabel: "round", YLabel: "relative error",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.RelErr[a])
	}
	return f, nil
}

// Fig3 — raw estimates relative to the truth (error bars): mean ± sd of
// est/truth per round.
func Fig3(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	if !opt.FullScale && opt.Trials == 0 {
		p.trials = 5 // error bars need a few trials
	}
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
		K:        p.k, G: p.g, Rounds: p.rounds,
		Aggs: countAggs,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig3", Title: "Relative size (estimate/truth) with error bars",
		XLabel: "round", YLabel: "relative size",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	for _, a := range AllAlgos {
		mean := make([]float64, p.rounds)
		sd := make([]float64, p.rounds)
		for i := 0; i < p.rounds; i++ {
			if res.Truth[i] != 0 {
				mean[i] = res.EstMean[a][i] / res.Truth[i]
				sd[i] = res.EstSD[a][i] / res.Truth[i]
			}
		}
		f.AddSeries(string(a), mean)
		f.AddSeries(string(a)+"±sd", sd)
	}
	return f, nil
}

// Fig5 — little change: one tuple inserted per round. REISSUE's error
// tapers off while RS keeps improving.
func Fig5(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	p.g = 100 // the paper's default budget for this figure
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.NetChange(1),
		K:        p.k, G: p.g, Rounds: p.rounds,
		Aggs: countAggs,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig5", Title: "Little change (+1 tuple/round): relative error vs round",
		XLabel: "round", YLabel: "relative error",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.RelErr[a])
	}
	return f, nil
}

// bigChangeParams scales the Fig 6/7 schedule (start 100k, +10000/−5% per
// round) to the reduced dataset.
func bigChangeParams(opt Options) autosParams {
	p := autosDefaults(opt)
	if opt.FullScale {
		p.initial = 100000
		p.insert = 10000
	} else {
		p.initial = 30000
		p.insert = 3000
	}
	p.deleteFrac = 0.05
	p.rounds = 10
	p.g = 500
	return p
}

// Fig6 — big change: REISSUE/RS still beat RESTART at k=1000.
func Fig6(opt Options) (*Figure, error) {
	p := bigChangeParams(opt)
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.FreshChurn(p.insert, p.deleteFrac),
		K:        p.k, G: p.g, Rounds: p.rounds,
		Aggs: countAggs,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig6", Title: "Big change (+~10%/−5% per round): relative error vs round",
		XLabel: "round", YLabel: "relative error",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.RelErr[a])
	}
	return f, nil
}

// Fig7 — big change with k = 1: the Theorem 3.2 worst case where RESTART
// can win.
func Fig7(opt Options) (*Figure, error) {
	p := bigChangeParams(opt)
	p.k = 1
	p.rounds = 20
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.FreshChurn(p.insert, p.deleteFrac),
		K:        p.k, G: p.g, Rounds: p.rounds,
		Aggs: countAggs,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig7", Title: "Big change with k=1: RESTART's regime",
		XLabel: "round", YLabel: "relative error",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.RelErr[a])
	}
	return f, nil
}

// Fig8 — effect of the interface cap k on the error after 50 rounds.
func Fig8(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	ks := []int{50, 100, 250, 500, 1000}
	if opt.FullScale {
		ks = []int{200, 400, 600, 800, 1000}
	}
	f := &Figure{
		ID: "fig8", Title: "Effect of k on final relative error",
		XLabel: "k", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}
	series := map[Algo][]float64{}
	for _, k := range ks {
		spec := TrackSpec{
			Dataset: p.dataset(), Initial: p.initial,
			Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
			K:        k, G: p.g, Rounds: p.rounds,
			Aggs: countAggs,
		}
		res, err := RunTracking(spec, opt, p.trials)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(k))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// Fig9 — effect of the per-round budget G on the error after 50 rounds.
func Fig9(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	gs := []int{100, 200, 300, 400, 500, 600}
	f := &Figure{
		ID: "fig9", Title: "Effect of per-round query budget G on final relative error",
		XLabel: "G", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}
	series := map[Algo][]float64{}
	for _, g := range gs {
		spec := TrackSpec{
			Dataset: p.dataset(), Initial: p.initial,
			Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
			K:        p.k, G: g, Rounds: p.rounds,
			Aggs: countAggs,
		}
		res, err := RunTracking(spec, opt, p.trials)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(g))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// Fig10 — net insertions/deletions per round over a 5,000-tuple database,
// 100 rounds (x axis: total tuples inserted, −3000..+3000).
func Fig10(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	rounds := 100
	totals := []int{-3000, -1000, 0, 1000, 3000}
	f := &Figure{
		ID: "fig10", Title: "Effect of insertion/deletion volume (|D1|=5000, 100 rounds)",
		XLabel: "net tuples inserted", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}
	series := map[Algo][]float64{}
	for _, total := range totals {
		perRound := total / rounds
		spec := TrackSpec{
			Dataset:  func(seed int64) *workload.Dataset { return workload.AutosLikeN(seed, 9000, p.m) },
			Initial:  5000,
			Schedule: workload.NetChange(perRound),
			K:        p.k, G: 100, Rounds: rounds,
			Aggs: countAggs,
		}
		res, err := RunTracking(spec, opt, p.trials)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(total))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// Fig11 — effect of the attribute count m (34, 36, 38): none expected.
func Fig11(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	ms := []int{34, 36, 38}
	f := &Figure{
		ID: "fig11", Title: "Effect of the number of attributes m",
		XLabel: "m", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}
	series := map[Algo][]float64{}
	for _, m := range ms {
		mm := m
		spec := TrackSpec{
			Dataset:  func(seed int64) *workload.Dataset { return workload.AutosLikeN(seed, p.n, mm) },
			Initial:  p.initial,
			Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
			K:        p.k, G: p.g, Rounds: p.rounds,
			Aggs: countAggs,
		}
		res, err := RunTracking(spec, opt, p.trials)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(m))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// Fig12 — effect of the starting database size |D1| with m = 50:
// RESTART's error grows with n, REISSUE/RS stay flat.
func Fig12(opt Options) (*Figure, error) {
	sizes := []int{10000, 100000, 1000000}
	note := "sizes up to 1e6; DYNAGG_FULL_SCALE=1 adds the 1e7 point"
	if opt.FullScale {
		sizes = append(sizes, 10000000)
		note = "full scale (paper parameters, m=50)"
	}
	f := &Figure{
		ID: "fig12", Title: "Effect of |D1| (m=50 uniform attributes)",
		XLabel: "|D1|", YLabel: "relative error",
		Notes: []string{note},
	}
	series := map[Algo][]float64{}
	for _, n := range sizes {
		nn := n
		churn := max(1, nn/1000)
		spec := TrackSpec{
			Dataset:  func(seed int64) *workload.Dataset { return workload.Scalable(seed, nn+nn/10, 50, 3) },
			Initial:  nn,
			Schedule: workload.PoolChurn(churn, 0.001),
			K:        100, G: 100, Rounds: 15,
			Aggs: countAggs,
		}
		res, err := RunTracking(spec, opt, opt.trials(1))
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(n))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// Fig13 — SUM aggregates with 0–3 conjunctive selection predicates.
func Fig13(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	rounds := p.rounds
	if opt.FullScale {
		rounds = 100
	}
	f := &Figure{
		ID: "fig13", Title: "SUM(price) with 0-3 conjunctive selection predicates",
		XLabel: "#predicates", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}
	series := map[Algo][]float64{}
	for preds := 0; preds <= 3; preds++ {
		np := preds
		spec := TrackSpec{
			Dataset: p.dataset(), Initial: p.initial,
			Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
			K:        p.k, G: p.g, Rounds: rounds,
			Aggs: func(sch *schema.Schema) []*agg.Aggregate {
				if np == 0 {
					return []*agg.Aggregate{agg.SumOf("SUM(price)", agg.AuxField(0))}
				}
				// Predicates on the common value of the NARROW (binary-ish)
				// tail attributes: each keeps ~60% of the population, so
				// even three predicates leave a slice far larger than k and
				// the subtree estimation is non-trivial (predicates on the
				// wide head attributes would shrink the slice below k and
				// make the root query exact).
				var ps []hiddendb.Pred
				for i := 0; i < np; i++ {
					ps = append(ps, hiddendb.Pred{Attr: sch.M() - 1 - i, Val: 0})
				}
				sel := hiddendb.NewQuery(ps...)
				return []*agg.Aggregate{agg.SumWhere(fmt.Sprintf("SUM(price) %dp", np), agg.AuxField(0), sel)}
			},
		}
		res, err := RunTracking(spec, opt, p.trials)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(preds))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}
