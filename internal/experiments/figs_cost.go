package experiments

import (
	"math"

	"github.com/dynagg/dynagg/internal/workload"
)

// Fig18 — query budget needed to reach a target relative error: the
// cumulative number of queries after which each algorithm's error stays
// at or below 0.15 / 0.10 / 0.05 under the default schedule, over 60
// rounds.
func Fig18(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	p.g = 100
	p.rounds = 60
	res, err := RunTracking(p.spec(workload.PoolChurn(p.insert, p.deleteFrac)), opt, p.trials)
	if err != nil {
		return nil, err
	}
	targets := []float64{0.15, 0.10, 0.05}
	f := &Figure{
		ID: "fig18", Title: "Query cost to reach a target relative error",
		XLabel: "target error", YLabel: "cumulative queries",
		Notes: []string{p.scaleNote, "NaN = target not reached within the run"},
	}
	series := map[Algo][]float64{}
	for _, target := range targets {
		f.X = append(f.X, target)
		for _, a := range AllAlgos {
			series[a] = append(series[a], queriesToReach(res, a, target))
		}
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a), series[a])
	}
	return f, nil
}

// queriesToReach finds the cumulative query count at the first round from
// which the algorithm's error stays at or below the target for the whole
// remainder of the run — sustained convergence, not a lucky dip (RESTART's
// independent per-round estimates cross loose thresholds by noise).
func queriesToReach(res *TrackResult, a Algo, target float64) float64 {
	rel := res.RelErr[a]
	entered := -1
	for i := range rel {
		switch {
		case rel[i] <= target && entered == -1:
			entered = i
		case rel[i] > target:
			entered = -1
		}
	}
	if entered == -1 {
		return math.NaN()
	}
	return res.CumQueries[a][entered]
}

// Fig19 — cumulative drill downs achieved per cumulative query cost over
// 50 rounds: the query-saving mechanism made visible.
func Fig19(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	p.g = 100
	res, err := RunTracking(p.spec(workload.PoolChurn(p.insert, p.deleteFrac)), opt, p.trials)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "fig19", Title: "Cumulative drill downs vs cumulative query cost",
		XLabel: "round", YLabel: "count",
		X:     roundsAxis(p.rounds),
		Notes: []string{p.scaleNote, "per algorithm: query cost column then drill-down column"},
	}
	for _, a := range AllAlgos {
		f.AddSeries(string(a)+" queries", res.CumQueries[a])
		f.AddSeries(string(a)+" drills", res.CumDrills[a])
	}
	return f, nil
}
