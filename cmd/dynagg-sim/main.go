// Command dynagg-sim runs an interactive tracking simulation: a synthetic
// hidden database evolves round by round while one or more estimators
// track an aggregate through the restrictive top-k interface.
//
// Usage examples:
//
//	dynagg-sim                                   # defaults: all algorithms
//	dynagg-sim -n 100000 -k 1000 -g 500 -rounds 50
//	dynagg-sim -algo RS -agg avgprice -insert 1000 -delete 0.05
//	dynagg-sim -agg delta                        # trans-round |Dj|-|Dj-1|
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	dynagg "github.com/dynagg/dynagg"
	"github.com/dynagg/dynagg/internal/dbflags"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, prints the tracking table to stdout and returns the
// exit status: 2 for a bad flag, 1 when the simulation fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynagg-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n      = fs.Int("n", 40000, "dataset size (tuple pool)")
		init0  = fs.Int("initial", 0, "initial database size (default 90% of n)")
		m      = fs.Int("m", 38, "number of attributes (<=38)")
		k      = fs.Int("k", 250, "interface top-k cap")
		g      = fs.Int("g", 500, "query budget per round")
		rounds = fs.Int("rounds", 25, "rounds to simulate")
		insert = fs.Int("insert", 300, "tuples inserted per round")
		del    = fs.Float64("delete", 0.001, "fraction of tuples deleted per round")
		seed   = fs.Int64("seed", 1, "random seed")
		algoF  = fs.String("algo", "ALL", "RESTART, REISSUE, RS, or ALL")
		aggF   = fs.String("agg", "count", "aggregate: count, sumprice, avgprice, delta")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var spec *dynagg.Aggregate
	switch *aggF {
	case "count", "delta":
		spec = dynagg.CountAll()
	case "sumprice":
		spec = dynagg.SumOf("SUM(price)", dynagg.AuxField(0))
	case "avgprice":
		spec = dynagg.AvgOf("AVG(price)", dynagg.AuxField(0))
	}
	var bad error
	switch {
	case spec == nil:
		bad = errors.New("-agg must be count, sumprice, avgprice or delta")
	case *g < 1:
		bad = errors.New("-g must be at least 1")
	default:
		bad = dbflags.DB{N: *n, Initial: *init0, M: *m, K: *k, Insert: *insert, Delete: *del}.Check()
	}
	if bad != nil {
		fmt.Fprintln(stderr, "dynagg-sim:", bad)
		return 2
	}
	if *init0 == 0 {
		*init0 = *n * 9 / 10
	}
	algos := []dynagg.Algorithm{dynagg.AlgoRestart, dynagg.AlgoReissue, dynagg.AlgoRS}
	if a := strings.ToUpper(*algoF); a != "ALL" {
		algos = []dynagg.Algorithm{dynagg.Algorithm(a)}
	}
	delta := *aggF == "delta"
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dynagg-sim:", err)
		return 1
	}

	// One database, tracked by one tracker per algorithm: each round
	// churns it and scans the truth once, then steps the trackers in
	// order, each on its own session of G queries.
	env, err := dynagg.NewEnv(dynagg.AutosLikeN(*seed, *n, *m), *init0, *seed+1)
	if err != nil {
		return fail(err)
	}
	iface := dynagg.NewIface(env.Store, *k, nil)
	trackers := make([]*dynagg.Tracker, len(algos))
	head := "round |        truth"
	for i, algo := range algos {
		trackers[i], err = dynagg.NewTracker(iface, []*dynagg.Aggregate{spec},
			dynagg.TrackerOptions{Algorithm: algo, Budget: *g, Seed: *seed + 7, DeltaTarget: delta})
		if err != nil {
			return fail(err)
		}
		head += fmt.Sprintf(" | %8s est   rel", algo)
	}
	fmt.Fprintln(stdout, head)

	prevTruth := math.NaN()
	for round := 1; round <= *rounds; round++ {
		if round > 1 {
			if err := env.DeleteFraction(*del); err != nil {
				return fail(err)
			}
			if err := env.InsertFromPool(*insert); err != nil {
				return fail(err)
			}
		}
		truth := spec.Truth(env.Store)
		target := truth
		if delta {
			target = truth - prevTruth
		}
		prevTruth = truth
		row := fmt.Sprintf("%5d | %12.1f", round, target)
		for _, tr := range trackers {
			if err := tr.Step(); err != nil {
				return fail(err)
			}
			est, ok := tr.Estimate(0)
			if delta {
				est, ok = tr.Delta(0)
			}
			if !ok {
				row += fmt.Sprintf(" | %12s", "-")
				continue
			}
			rel := math.Abs(est.Value-target) / math.Max(1e-9, math.Abs(target))
			row += fmt.Sprintf(" | %12.1f %4.0f%%", est.Value, 100*rel)
		}
		fmt.Fprintln(stdout, row)
	}
	return 0
}
