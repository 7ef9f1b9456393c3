// Benchmarks regenerating every figure of the paper's evaluation (§6).
// Each BenchmarkFigNN runs the corresponding experiment end to end and
// reports the final relative error per algorithm as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation and records the headline numbers.
package dynagg_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	dynagg "github.com/dynagg/dynagg"
	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/experiments"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
)

// benchFigure runs one figure per iteration and reports per-series tail
// means as metrics.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	opt := experiments.DefaultOptions()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		f, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		fig = f
	}
	if fig == nil {
		return
	}
	for _, s := range fig.Series {
		tail := len(s.Y) / 5
		if tail < 1 {
			tail = 1
		}
		var sum float64
		n := 0
		for _, v := range s.Y[len(s.Y)-tail:] {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sum += v
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "final_"+sanitizeMetric(s.Label))
		}
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func BenchmarkFig02RelativeError(b *testing.B)    { benchFigure(b, "fig2") }
func BenchmarkFig03ErrorBar(b *testing.B)         { benchFigure(b, "fig3") }
func BenchmarkFig04IntraRound(b *testing.B)       { benchFigure(b, "fig4") }
func BenchmarkFig05LittleChange(b *testing.B)     { benchFigure(b, "fig5") }
func BenchmarkFig06BigChange(b *testing.B)        { benchFigure(b, "fig6") }
func BenchmarkFig07BigChangeK1(b *testing.B)      { benchFigure(b, "fig7") }
func BenchmarkFig08EffectOfK(b *testing.B)        { benchFigure(b, "fig8") }
func BenchmarkFig09QueryBudget(b *testing.B)      { benchFigure(b, "fig9") }
func BenchmarkFig10InsDel(b *testing.B)           { benchFigure(b, "fig10") }
func BenchmarkFig11EffectOfM(b *testing.B)        { benchFigure(b, "fig11") }
func BenchmarkFig12DatabaseSize(b *testing.B)     { benchFigure(b, "fig12") }
func BenchmarkFig13SumConditions(b *testing.B)    { benchFigure(b, "fig13") }
func BenchmarkFig14RunningAverage(b *testing.B)   { benchFigure(b, "fig14") }
func BenchmarkFig15DeltaSmallChange(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16DeltaAbsolute(b *testing.B)    { benchFigure(b, "fig16") }
func BenchmarkFig17DeltaBigChange(b *testing.B)   { benchFigure(b, "fig17") }
func BenchmarkFig18AccuracyVsBudget(b *testing.B) { benchFigure(b, "fig18") }
func BenchmarkFig19DrillDowns(b *testing.B)       { benchFigure(b, "fig19") }
func BenchmarkFig20AmazonLive(b *testing.B)       { benchFigure(b, "fig20") }
func BenchmarkFig21EBayLive(b *testing.B)         { benchFigure(b, "fig21") }

// ---------------------------------------------------------------------
// Ablation benches
// ---------------------------------------------------------------------

// BenchmarkAblationRSPilot sweeps RS's bootstrap parameter ϖ.
func BenchmarkAblationRSPilot(b *testing.B) {
	for _, pilot := range []int{5, 10, 20} {
		b.Run(map[int]string{5: "pilot5", 10: "pilot10", 20: "pilot20"}[pilot], func(b *testing.B) {
			b.ReportAllocs()
			var finalErr float64
			for i := 0; i < b.N; i++ {
				data := workload.AutosLikeN(1, 20000, 12)
				env, err := workload.NewEnv(data, 18000, 2)
				if err != nil {
					b.Fatal(err)
				}
				iface := hiddendb.NewIface(env.Store, 200, nil)
				cfg := estimator.Config{Rand: rand.New(rand.NewSource(7)), Pilot: pilot}
				e, err := estimator.NewRS(env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for round := 1; round <= 10; round++ {
					if round > 1 {
						if err := env.InsertFromPool(100); err != nil {
							b.Fatal(err)
						}
					}
					if err := e.Step(iface.NewSession(300)); err != nil {
						b.Fatal(err)
					}
				}
				est, _ := e.Estimate(0)
				truth := float64(env.Store.Size())
				finalErr = math.Abs(est.Value-truth) / truth
			}
			b.ReportMetric(finalErr, "final_relerr")
		})
	}
}

// ---------------------------------------------------------------------
// Parallel trial engine
// ---------------------------------------------------------------------

// BenchmarkRunTrackingWorkers measures the wall-clock scaling of the
// parallel trial engine: the same 8-trial tracking run with 1 worker
// and with one worker per core. The figures are byte-identical across
// worker counts (the engine aggregates by trial index); only wall-clock
// time changes, so the sub-benchmark ratio IS the speedup.
func BenchmarkRunTrackingWorkers(b *testing.B) {
	spec := experiments.TrackSpec{
		Dataset:  func(seed int64) *workload.Dataset { return workload.AutosLikeN(seed, 8000, 10) },
		Initial:  7000,
		Schedule: workload.PoolChurn(100, 0.005),
		K:        100, G: 200, Rounds: 6,
		Aggs: func(*schema.Schema) []*agg.Aggregate { return []*agg.Aggregate{agg.CountAll()} },
	}
	const trials = 8
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			opt := experiments.Options{Seed: 1, Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTracking(spec, opt, trials); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Concurrent serving layer
// ---------------------------------------------------------------------

// BenchmarkServingConcurrent measures read throughput of ONE Iface shared
// by w client goroutines (one Session each), over a frozen round — the
// webiface serving pattern. The op count is fixed, so ns/op should fall
// near-linearly with w on a multi-core runner (the dev box may be
// 1-core; the CI artifact records the scaling).
func BenchmarkServingConcurrent(b *testing.B) {
	data := workload.AutosLikeN(1, 60000, 12)
	env, err := workload.NewEnv(data, 54000, 2)
	if err != nil {
		b.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	// A mixed workload: prefix drills, non-prefix point queries (served
	// by posting lists), and two-predicate conjunctions.
	var queries []dynagg.Query
	for v := 0; v < 8; v++ {
		queries = append(queries,
			hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: uint16(v % 4)}, hiddendb.Pred{Attr: 1, Val: uint16(v % 3)}),
			hiddendb.NewQuery(hiddendb.Pred{Attr: 9, Val: uint16(v % 3)}),
			hiddendb.NewQuery(hiddendb.Pred{Attr: 4, Val: uint16(v % 3)}, hiddendb.Pred{Attr: 8, Val: uint16(v % 2)}),
		)
	}
	// Warm the snapshot and posting lists once so every sub-benchmark
	// measures steady-state serving.
	for _, q := range queries {
		if _, err := iface.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	workerCounts := []int{1, 2, 4, 8}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("clients=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / w
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := iface.NewSession(0) // sessions are per-goroutine
					for i := 0; i < per; i++ {
						if _, err := s.Search(queries[(g+i)%len(queries)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}

	// The sharded serving path: the same mixed workload scatter-gathered
	// across N shards while a round driver churns the store with one
	// mutator goroutine per shard and publishes a fresh epoch each round
	// — throughput under realistic mutation load. shards=1 is the
	// single-shard baseline the CI soft-check ratios against.
	for _, shards := range []int{1, 4, 16} {
		senv, err := workload.NewShardedEnv(data, 54000, 2, shards)
		if err != nil {
			b.Fatal(err)
		}
		siface := hiddendb.NewShardedIface(senv.Store, 100, nil)
		for _, q := range queries {
			if _, err := siface.Search(q); err != nil {
				b.Fatal(err)
			}
		}
		for _, w := range []int{1, 8} {
			b.Run(fmt.Sprintf("shards=%d/clients=%d", shards, w), func(b *testing.B) {
				b.ReportAllocs()
				stop := make(chan struct{})
				var mutWG sync.WaitGroup
				mutWG.Add(1)
				go func() {
					defer mutWG.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := senv.InsertFromPool(200); err != nil {
							b.Error(err)
							return
						}
						if err := senv.DeleteFraction(0.002); err != nil {
							b.Error(err)
							return
						}
						senv.Store.AdvanceEpoch()
					}
				}()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / w
				for g := 0; g < w; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						s := siface.NewSession(0)
						for i := 0; i < per; i++ {
							if _, err := s.Search(queries[(g+i)%len(queries)]); err != nil {
								b.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				mutWG.Wait()
			})
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the substrate
// ---------------------------------------------------------------------

// BenchmarkStoreSearch measures the simulated interface's query latency
// on a paper-scale store (uncached worst case: the store version changes
// between queries).
func BenchmarkStoreSearch(b *testing.B) {
	data := workload.AutosLikeN(1, 100000, 38)
	env, err := workload.NewEnv(data, 100000, 2)
	if err != nil {
		b.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 1000, nil)
	q := hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: 0}, hiddendb.Pred{Attr: 1, Val: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bump the store version so the cache cannot serve the answer.
		env.Store.SetBroadMatchNull(false)
		if _, err := iface.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDrillDown measures one fresh drill down end to end.
func BenchmarkDrillDown(b *testing.B) {
	data := workload.AutosLikeN(1, 100000, 38)
	env, err := workload.NewEnv(data, 100000, 2)
	if err != nil {
		b.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 1000, nil)
	tree := querytree.New(env.Store.Schema())
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := tree.RandomSignature(rng)
		if _, err := querytree.DrillFromRoot(iface.AsSearcher(), tree, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateDrill measures a reissued drill-down update on a store
// that changed since the last round.
func BenchmarkUpdateDrill(b *testing.B) {
	data := workload.AutosLikeN(1, 100000, 38)
	env, err := workload.NewEnv(data, 90000, 2)
	if err != nil {
		b.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 1000, nil)
	tree := querytree.New(env.Store.Schema())
	rng := rand.New(rand.NewSource(3))
	type saved struct {
		sig   querytree.Signature
		depth int
	}
	var drills []saved
	for i := 0; i < 64; i++ {
		sig := tree.RandomSignature(rng)
		o, err := querytree.DrillFromRoot(iface.AsSearcher(), tree, sig)
		if err != nil {
			b.Fatal(err)
		}
		drills = append(drills, saved{sig, o.Depth})
	}
	if err := env.InsertFromPool(1000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := drills[i%len(drills)]
		if _, err := querytree.UpdateDrill(iface.AsSearcher(), tree, d.sig, d.depth); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatch measures the store's batched round update.
func BenchmarkApplyBatch(b *testing.B) {
	data := workload.AutosLikeN(1, 120000, 38)
	env, err := workload.NewEnv(data, 100000, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.DeleteFraction(0.001); err != nil {
			b.Fatal(err)
		}
		if err := env.InsertFromPool(100); err != nil {
			b.Fatal(err)
		}
	}
}
