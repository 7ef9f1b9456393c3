package experiments

import (
	"math/rand"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/livesim"
)

// Fig20 — the Amazon.com live experiment (Thanksgiving week 2013),
// reproduced against the scripted simulator: track AVG(price), %men and
// %wrist over watches with k=100 and G=1000 queries per day. Unlike the
// paper's live run, the simulator supplies ground truth, reported in the
// TRUTH columns.
func Fig20(opt Options) (*Figure, error) {
	am, err := livesim.NewAmazon(opt.Seed)
	if err != nil {
		return nil, err
	}
	iface := am.Interface()
	aggs := am.Aggregates()
	cfg := estimator.Config{Rand: rand.New(rand.NewSource(opt.Seed + 7))}
	est, err := estimator.New("RS", am.Env.Store.Schema(), aggs, cfg)
	if err != nil {
		return nil, err
	}

	f := &Figure{
		ID: "fig20", Title: "Amazon live experiment (simulated): watches over Thanksgiving week",
		XLabel: "day", YLabel: "estimate",
		X:       roundsAxis(am.Rounds()),
		XLabels: livesim.AmazonDays,
		Notes:   []string{"substitution: scripted promotion simulator (see internal/livesim); estimator: RS, k=100, G=1000/day"},
	}
	series := make([][]float64, len(aggs)*2)
	for round := 1; round <= am.Rounds(); round++ {
		if err := am.StepDay(round); err != nil {
			return nil, err
		}
		if err := est.Step(iface.NewSession(1000)); err != nil {
			return nil, err
		}
		for i, a := range aggs {
			e, _ := est.Estimate(i)
			scale := 1.0
			if i > 0 {
				scale = 100 // render proportions as percentages
			}
			series[2*i] = append(series[2*i], e.Value*scale)
			series[2*i+1] = append(series[2*i+1], a.Truth(am.Env.Store)*scale)
		}
	}
	labels := []string{"Price", "Price TRUTH", "%Men", "%Men TRUTH", "%Wrist", "%Wrist TRUTH"}
	for i, l := range labels {
		f.AddSeries(l, series[i])
	}
	return f, nil
}

// Fig21 — the eBay live experiment (women's wrist watches, hourly),
// reproduced against the scripted simulator: AVG price of Buy-It-Now
// (FIX) and auction (BID) listings for all three algorithms with k=100
// and G=250 queries per hour per algorithm.
func Fig21(opt Options) (*Figure, error) {
	eb, err := livesim.NewEBay(opt.Seed)
	if err != nil {
		return nil, err
	}
	iface := eb.Interface()
	ests := map[Algo]estimator.Estimator{}
	for _, a := range AllAlgos {
		cfg := estimator.Config{Rand: rand.New(rand.NewSource(opt.Seed + 7))}
		e, err := estimator.New(string(a), eb.Env.Store.Schema(),
			[]*agg.Aggregate{eb.FixAggregate(), eb.BidAggregate()}, cfg)
		if err != nil {
			return nil, err
		}
		ests[a] = e
	}

	f := &Figure{
		ID: "fig21", Title: "eBay live experiment (simulated): FIX vs BID average price, hourly",
		XLabel: "hour", YLabel: "AVG price ($)",
		X:       roundsAxis(eb.Rounds()),
		XLabels: livesim.EBayHours,
		Notes:   []string{"substitution: scripted auction simulator (see internal/livesim); k=100, G=250/hour per algorithm"},
	}
	type key struct {
		algo Algo
		agg  int
	}
	series := map[key][]float64{}
	var truthFix, truthBid []float64
	for round := 1; round <= eb.Rounds(); round++ {
		if err := eb.StepHour(round); err != nil {
			return nil, err
		}
		truthFix = append(truthFix, eb.FixAggregate().Truth(eb.Env.Store))
		truthBid = append(truthBid, eb.BidAggregate().Truth(eb.Env.Store))
		for _, a := range AllAlgos {
			if err := ests[a].Step(iface.NewSession(250)); err != nil {
				return nil, err
			}
			for i := 0; i < 2; i++ {
				e, _ := ests[a].Estimate(i)
				series[key{a, i}] = append(series[key{a, i}], e.Value)
			}
		}
	}
	f.AddSeries("FIX TRUTH", truthFix)
	for _, a := range AllAlgos {
		f.AddSeries(string(a)+"-FIX", series[key{a, 0}])
	}
	f.AddSeries("BID TRUTH", truthBid)
	for _, a := range AllAlgos {
		f.AddSeries(string(a)+"-BID", series[key{a, 1}])
	}
	return f, nil
}
