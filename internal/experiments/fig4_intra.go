package experiments

import (
	"math/rand"

	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/stats"
	"github.com/dynagg/dynagg/internal/workload"
)

// Fig4 — intra-round updates (the constant-update model of §5.2): the
// paper's worst case where the algorithm takes the whole hour to execute
// while tuples are inserted every 12s and deleted every 21s. REISSUE and
// RS are compared against their own round-update executions; the curves
// should nearly coincide.
func Fig4(opt Options) (*Figure, error) {
	p := autosDefaults(opt)
	hours := 48
	g := 100
	insertPerHour := p.insert  // 300/hour (one per 12s)
	deletePerHour := 3600 / 21 // one per 21s
	trials := opt.trials(2)

	type mode struct {
		label string
		intra bool
		algo  Algo
	}
	modes := []mode{
		{"REISSUE", false, Reissue},
		{"REISSUE (Intra-Round)", true, Reissue},
		{"RS", false, RS},
		{"RS (Intra-Round)", true, RS},
	}

	// One trial's relative-error observations: per mode, per hour
	// (ok=false where the estimator had no estimate yet).
	type obs struct {
		rel float64
		ok  bool
	}
	runTrial := func(trial int) (map[string][]obs, error) {
		out := make(map[string][]obs, len(modes))
		dataSeed := trialSeed(opt.Seed, trial)
		data := p.dataset()(dataSeed)
		for _, m := range modes {
			series := make([]obs, hours)
			env, err := workload.NewEnv(data, p.initial, dataSeed+envSeedOffset)
			if err != nil {
				return nil, err
			}
			iface := hiddendb.NewIface(env.Store, p.k, nil)
			cfg := estimator.Config{Rand: rand.New(rand.NewSource(dataSeed + rngSeedOffset)), Parallelism: opt.Parallelism}
			est, err := estimator.New(string(m.algo), env.Store.Schema(), countAggs(env.Store.Schema()), cfg)
			if err != nil {
				return nil, err
			}
			for hour := 1; hour <= hours; hour++ {
				sess := iface.NewSession(g)
				var hookErr error
				applied := 0
				nOps := insertPerHour + deletePerHour
				applyOps := func(upto int) {
					for applied < upto && hookErr == nil {
						// Interleave: spread deletions evenly between inserts.
						if applied%(nOps/deletePerHour+1) == nOps/deletePerHour {
							hookErr = env.DeleteRandom(1)
						} else {
							hookErr = env.InsertFromPool(1)
						}
						applied++
					}
				}
				if hour > 1 {
					if m.intra {
						sess.SetPreSearchHook(func(qi int) {
							applyOps((qi + 1) * nOps / g)
						})
					} else {
						applyOps(nOps) // round-update model: all at once
					}
				}
				if err := est.Step(sess); err != nil {
					return nil, err
				}
				if hour > 1 && m.intra {
					applyOps(nOps) // any stragglers (budget died early)
				}
				if hookErr != nil {
					return nil, hookErr
				}
				truth := float64(env.Store.Size())
				if e, ok := est.Estimate(0); ok {
					series[hour-1] = obs{rel: stats.RelativeError(e.Value, truth), ok: true}
				}
			}
			out[m.label] = series
		}
		return out, nil
	}

	outs, err := runTrials(trials, opt.workers(), runTrial)
	if err != nil {
		return nil, err
	}
	acc := make(map[string][]stats.Running)
	for _, m := range modes {
		acc[m.label] = make([]stats.Running, hours)
	}
	for _, tr := range outs {
		for _, m := range modes {
			for hour := 0; hour < hours; hour++ {
				if o := tr[m.label][hour]; o.ok {
					acc[m.label][hour].Add(o.rel)
				}
			}
		}
	}

	f := &Figure{
		ID: "fig4", Title: "Intra-round updates: round-update model vs constant-update model",
		XLabel: "hour", YLabel: "relative error",
		X:     roundsAxis(hours),
		Notes: []string{p.scaleNote, "updates spread across each hour's queries (1 insert/12s, 1 delete/21s)"},
	}
	for _, m := range modes {
		y := make([]float64, hours)
		for i := range y {
			y[i] = acc[m.label][i].Mean()
		}
		f.AddSeries(m.label, y)
	}
	return f, nil
}
