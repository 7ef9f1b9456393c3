package experiments

import (
	"fmt"

	"github.com/dynagg/dynagg/internal/workload"
)

func init() {
	register("fig14", Fig14)
	register("fig15", Fig15)
	register("fig16", Fig16)
	register("fig17", Fig17)
}

// Fig14 — running average AVG(|D_i|, |D_{i-1}|, ...) over windows of 2, 3
// and 4 rounds: final relative error per window size.
func Fig14(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	f := &Figure{
		ID: "fig14", Title: "Running average of COUNT over the last w rounds",
		XLabel: "window w", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}
	series := map[Algo][]float64{}
	for _, w := range []int{2, 3, 4} {
		spec := TrackSpec{
			Dataset: p.dataset(), Initial: p.initial,
			Schedule: workload.PoolChurn(p.insert, p.deleteFrac),
			K:        p.k, G: p.g, Rounds: p.rounds,
			Aggs:   countAggs,
			Window: w,
		}
		res, err := RunTracking(spec, opt, p.trials)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(w))
		for _, a := range AllAlgos {
			series[a] = append(series[a], res.FinalErr(a))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// deltaParams configures the trans-round |D_j|−|D_{j-1}| experiments.
// insertFrac is relative to the paper's 188,917-tuple database.
func deltaParams(opt Options, paperInsert int, deleteFrac float64, rounds int) autosParams {
	p := autosDefaults(opt)
	if opt.FullScale {
		p.insert = paperInsert
	} else {
		// Scale insertions with the dataset so the relative churn matches.
		p.insert = max(1, paperInsert*p.n/workload.AutosSize)
	}
	p.deleteFrac = deleteFrac
	p.rounds = rounds
	p.g = 500
	return p
}

// Fig15 — trans-round delta under small change (+3000/−0.5% per round on
// the full snapshot): relative error per round (the paper plots log-y).
func Fig15(opt Options) (*Figure, error) {
	p := deltaParams(opt, 3000, 0.005, 21)
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.Compose(
			func(round int, env *workload.Env) error { return env.DeleteFraction(p.deleteFrac) },
			func(round int, env *workload.Env) error { return env.InsertFromPool(p.insert) },
		),
		K: p.k, G: p.g, Rounds: p.rounds,
		Aggs:  countAggs,
		Delta: true,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig15", Title: "Trans-round |Dj|-|Dj-1| under small change: relative error",
		XLabel: "round", YLabel: "relative error (log scale in paper)",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote, fmt.Sprintf("schedule: +%d tuples, -%.1f%% per round", p.insert, p.deleteFrac*100)},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.RelErr[a])
	}
	return f, nil
}

// Fig16 — the same small-change experiment, absolute delta estimates
// against the truth.
func Fig16(opt Options) (*Figure, error) {
	p := deltaParams(opt, 3000, 0.005, 21)
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.Compose(
			func(round int, env *workload.Env) error { return env.DeleteFraction(p.deleteFrac) },
			func(round int, env *workload.Env) error { return env.InsertFromPool(p.insert) },
		),
		K: p.k, G: p.g, Rounds: p.rounds,
		Aggs:  countAggs,
		Delta: true,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig16", Title: "Trans-round delta under small change: absolute estimates",
		XLabel: "round", YLabel: "estimated |Dj|-|Dj-1|",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	f.AddSeries("TRUTH", res.Truth)
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.EstMean[a])
	}
	return f, nil
}

// Fig17 — trans-round delta under big change (+10000/−5% per round).
func Fig17(opt Options) (*Figure, error) {
	p := deltaParams(opt, 10000, 0.05, 9)
	spec := TrackSpec{
		Dataset: p.dataset(), Initial: p.initial,
		Schedule: workload.FreshChurn(p.insert, p.deleteFrac),
		K:        p.k, G: p.g, Rounds: p.rounds,
		Aggs:  countAggs,
		Delta: true,
	}
	res, err := RunTracking(spec, opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig17", Title: "Trans-round delta under big change: relative error",
		XLabel: "round", YLabel: "relative error",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), res.RelErr[a])
	}
	return f, nil
}
