package experiments

import (
	"fmt"

	"github.com/dynagg/dynagg/internal/workload"
)

// Fig14 — running average AVG(|D_i|, |D_{i-1}|, ...) over windows of 2, 3
// and 4 rounds: final relative error per window size.
func Fig14(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	return finalErrorSweep(&Figure{
		ID: "fig14", Title: "Running average of COUNT over the last w rounds",
		XLabel: "window w", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}, opt, p.trials, []int{2, 3, 4}, func(w int) TrackSpec {
		spec := p.spec(workload.PoolChurn(p.insert, p.deleteFrac))
		spec.Window = w
		return spec
	})
}

// deltaParams configures the trans-round |D_j|−|D_{j-1}| experiments.
// paperInsert is relative to the paper's 188,917-tuple database.
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

// smallChange is the experiment Figs 15 and 16 plot: the trans-round
// delta of COUNT(*) under small change (+3000/−0.5% per round on the
// full snapshot, deletions first).
func smallChange(opt Options) (autosParams, TrackSpec) {
	p := deltaParams(opt, 3000, 0.005, 21)
	spec := p.spec(workload.Compose(
		func(round int, env *workload.Env) error { return env.DeleteFraction(p.deleteFrac) },
		func(round int, env *workload.Env) error { return env.InsertFromPool(p.insert) },
	))
	spec.Delta = true
	return p, spec
}

// Fig15 — trans-round delta under small change: relative error per round
// (the paper plots log-y).
func Fig15(opt Options) (*Figure, error) {
	p, spec := smallChange(opt)
	return errorPerRound(&Figure{
		ID: "fig15", Title: "Trans-round |Dj|-|Dj-1| under small change: relative error",
		XLabel: "round", YLabel: "relative error (log scale in paper)",
		Notes: []string{p.scaleNote, fmt.Sprintf("schedule: +%d tuples, -%.1f%% per round", p.insert, p.deleteFrac*100)},
	}, opt, p.trials, spec)
}

// Fig16 — the same small-change experiment, absolute delta estimates
// against the truth.
func Fig16(opt Options) (*Figure, error) {
	p, spec := smallChange(opt)
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
	spec := p.spec(workload.FreshChurn(p.insert, p.deleteFrac))
	spec.Delta = true
	return errorPerRound(&Figure{
		ID: "fig17", Title: "Trans-round delta under big change: relative error",
		XLabel: "round", YLabel: "relative error",
		Notes: []string{p.scaleNote},
	}, opt, p.trials, spec)
}
