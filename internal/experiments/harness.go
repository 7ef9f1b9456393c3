// Package experiments regenerates every figure of the paper's evaluation
// (§6, Figs 2–21). Each figure has a runner returning a Figure value —
// the same series the paper plots — printable as an aligned text table,
// and the figures table lists the runners in the paper's order. Most
// runners are a spec plus a plot shape: autosParams.spec builds the
// COUNT(*) tracking experiment (a TrackSpec) the Autos figures share,
// and errorPerRound or finalErrorSweep runs it and plots each
// algorithm's relative error per round or its final error against a
// swept parameter.
//
// Scale: by default the runners use a reduced dataset (≈40k tuples instead
// of the 188,917-tuple Yahoo! Autos snapshot) and a couple of trials so the
// whole suite completes on a single core in minutes while preserving each
// figure's qualitative shape. Setting DYNAGG_FULL_SCALE=1 (or
// Options.FullScale) switches to the paper's parameters.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/estimator"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/stats"
	"github.com/dynagg/dynagg/internal/workload"
)

// Algo names one of the three algorithms under comparison.
type Algo string

// The algorithms of the paper's evaluation.
const (
	Restart Algo = "RESTART"
	Reissue Algo = "REISSUE"
	RS      Algo = "RS"
)

// AllAlgos is the standard comparison set.
var AllAlgos = []Algo{Restart, Reissue, RS}

// Options tunes a figure run.
type Options struct {
	// Seed anchors all randomness; every run with the same options is
	// bit-identical.
	Seed int64
	// Trials averages relative errors over this many independent runs
	// (0 = figure default).
	Trials int
	// FullScale switches to the paper's dataset sizes and round counts.
	FullScale bool
	// Workers bounds how many trials run concurrently, each on its own
	// goroutine with a fully isolated environment (0 = GOMAXPROCS).
	// Results are aggregated by trial index, so every figure is
	// byte-identical across Workers values for the same Seed.
	Workers int
	// Parallelism is the intra-trial bound: how many of one round's
	// planned drill-down walks each estimator issues concurrently
	// (estimator.Config.Parallelism; 0 = DYNAGG_ESTIMATOR_WORKERS or
	// sequential). Estimates — and therefore figures — are byte-identical
	// across values; constant-update figures fall back to sequential
	// automatically (their sessions carry a pre-search hook).
	Parallelism int
}

// DefaultOptions reads DYNAGG_FULL_SCALE, DYNAGG_WORKERS and
// DYNAGG_ESTIMATOR_WORKERS from the environment.
func DefaultOptions() Options {
	workers, _ := strconv.Atoi(os.Getenv("DYNAGG_WORKERS"))
	estWorkers, _ := strconv.Atoi(os.Getenv("DYNAGG_ESTIMATOR_WORKERS"))
	return Options{
		Seed:        1,
		FullScale:   os.Getenv("DYNAGG_FULL_SCALE") == "1",
		Workers:     workers,
		Parallelism: estWorkers,
	}
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// workers resolves the worker-pool size (0 = one per available core).
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Figure is one reproduced table/plot.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// X holds the x-axis values; XLabels overrides their rendering
	// (dates, hours).
	X       []float64
	XLabels []string
	Series  []Series
	Notes   []string
}

// Series is one line of a figure.
type Series struct {
	Label string
	Y     []float64
}

// AddSeries appends a named series.
func (f *Figure) AddSeries(label string, y []float64) {
	f.Series = append(f.Series, Series{Label: label, Y: y})
}

// Write renders the figure as an aligned text table.
func (f *Figure) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	writeAligned(w, f.rows(formatVal, "-"))
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the figure as a CSV table (x column then one column
// per series) for external plotting tools.
func (f *Figure) WriteCSV(w io.Writer) error {
	exact := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return csv.NewWriter(w).WriteAll(f.rows(exact, ""))
}

// rows lays the figure out as a header row (x label, then each series'
// label) and one row per x value, each y value rendered by cell; a
// series shorter than X renders missing for the points it lacks.
func (f *Figure) rows(cell func(float64) string, missing string) [][]string {
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for i, x := range f.X {
		row := []string{formatVal(x)}
		if i < len(f.XLabels) {
			row[0] = f.XLabels[i]
		}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, cell(s.Y[i]))
			} else {
				row = append(row, missing)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func formatVal(v float64) string {
	switch {
	case math.IsInf(v, 0) || math.IsNaN(v):
		return fmt.Sprintf("%v", v)
	case v == math.Trunc(v) && math.Abs(v) < 1e7:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1e6 || (v != 0 && math.Abs(v) < 1e-3):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// TrackSpec describes one tracking experiment: a dynamic database, an
// update schedule, an interface and a set of aggregates, tracked by every
// algorithm of AllAlgos.
type TrackSpec struct {
	// Dataset builds the tuple universe for a trial seed.
	Dataset func(seed int64) *workload.Dataset
	// Initial is the number of tuples loaded before round 1.
	Initial int
	// Schedule mutates the database at the start of rounds 2..Rounds.
	Schedule workload.Schedule
	// K is the interface's top-k cap; G the per-round query budget.
	K, G int
	// Rounds is the number of tracked rounds.
	Rounds int
	// Aggs builds the tracked aggregates (index 0 is the measured one).
	Aggs func(sch *schema.Schema) []*agg.Aggregate
	// Delta measures the trans-round delta of aggregate 0 instead of its
	// single-round value, and makes RS allocate its budget for it
	// (estimator.Config.DeltaTarget).
	Delta bool
	// Window, when > 0, measures the running average of aggregate 0 over
	// the last Window rounds (the Fig 14 trans-round aggregate). Mutually
	// exclusive with Delta.
	Window int
}

// TrackResult carries everything the figures plot.
type TrackResult struct {
	Rounds int
	// Truth per round: the target of the one database every algorithm
	// of a trial tracks, averaged over trials.
	Truth []float64
	// RelErr / EstMean / EstSD / CumQueries / CumDrills are per-algorithm
	// per-round, averaged (RelErr, means) or pooled (SD) over trials.
	RelErr     map[Algo][]float64
	EstMean    map[Algo][]float64
	EstSD      map[Algo][]float64
	CumQueries map[Algo][]float64
	CumDrills  map[Algo][]float64
}

// FinalErr returns the mean relative error over the last max(1, n/5)
// rounds — the "error after R rounds" number used by the sweep figures.
func (r *TrackResult) FinalErr(a Algo) float64 {
	y := r.RelErr[a]
	if len(y) == 0 {
		return math.NaN()
	}
	tail := len(y) / 5
	if tail < 1 {
		tail = 1
	}
	var s float64
	for _, v := range y[len(y)-tail:] {
		s += v
	}
	return s / float64(tail)
}

// trackCell is what one trial contributes to one (algorithm, round)
// aggregate cell.
type trackCell struct {
	queries, drills float64
	est, rel        float64
	estOK           bool
}

// trackTrial is the complete outcome of one trial, produced on the
// trial's worker goroutine and merged by RunTracking in trial order.
type trackTrial struct {
	truth   []float64 // per-round target; valid where truthOK
	truthOK []bool
	cells   map[Algo][]trackCell
}

// runTrackingTrial executes one fully isolated trial: its own dataset,
// one environment and interface, one estimator per algorithm, and RNGs
// derived from trialSeed(opt.Seed, trial). Each round applies the
// schedule and scans the truth once, then steps the estimators in
// AllAlgos order, each on its own session of G queries. An answer
// depends only on the store version and k, so an estimator sees the
// answers it would see alone. The trial never touches shared mutable
// state, so any number of trials may run concurrently.
func runTrackingTrial(spec TrackSpec, opt Options, trial int) (*trackTrial, error) {
	out := &trackTrial{
		truth:   make([]float64, spec.Rounds),
		truthOK: make([]bool, spec.Rounds),
		cells:   make(map[Algo][]trackCell, len(AllAlgos)),
	}
	dataSeed := trialSeed(opt.Seed, trial)
	env, err := workload.NewEnv(spec.Dataset(dataSeed), spec.Initial, dataSeed+envSeedOffset)
	if err != nil {
		return nil, err
	}
	iface := hiddendb.NewIface(env.Store, spec.K, nil)
	aggs := spec.Aggs(env.Store.Schema())
	ests := make([]estimator.Estimator, len(AllAlgos))
	for i, a := range AllAlgos {
		cfg := estimator.Config{
			Rand:        rand.New(rand.NewSource(dataSeed + rngSeedOffset)),
			Parallelism: opt.Parallelism,
			DeltaTarget: spec.Delta,
		}
		if ests[i], err = estimator.New(string(a), env.Store.Schema(), aggs, cfg); err != nil {
			return nil, err
		}
		out.cells[a] = make([]trackCell, spec.Rounds)
	}
	cumQ := make([]float64, len(AllAlgos))
	estHist := make([][]float64, len(AllAlgos))
	prevTruth := math.NaN()
	var truthHist []float64
	for round := 1; round <= spec.Rounds; round++ {
		if round > 1 {
			if err := spec.Schedule(round, env); err != nil {
				return nil, err
			}
		}
		truth := aggs[0].Truth(env.Store)
		truthHist = append(truthHist, truth)
		target := truth
		switch {
		case spec.Delta:
			target = truth - prevTruth
		case spec.Window > 0:
			target = tailMean(truthHist, spec.Window)
		}
		prevTruth = truth
		ready := (!spec.Delta || round > 1) && (spec.Window == 0 || round >= spec.Window)
		out.truth[round-1], out.truthOK[round-1] = target, ready

		for i, a := range AllAlgos {
			est := ests[i]
			if err := est.Step(iface.NewSession(spec.G)); err != nil {
				return nil, err
			}
			cumQ[i] += float64(est.UsedLastRound())
			c := &out.cells[a][round-1]
			c.queries = cumQ[i]
			c.drills = float64(est.DrillDowns())
			var e estimator.Estimate
			var ok bool
			if spec.Delta {
				e, ok = est.EstimateDelta(0)
			} else {
				e, ok = est.Estimate(0)
			}
			value := e.Value
			if ok && spec.Window > 0 {
				estHist[i] = append(estHist[i], e.Value)
				if len(estHist[i]) >= spec.Window {
					value = tailMean(estHist[i], spec.Window)
				} else {
					ok = false
				}
			}
			if ok && ready {
				c.est = value
				c.rel = stats.RelativeError(value, target)
				c.estOK = true
			}
		}
	}
	return out, nil
}

// RunTracking executes the spec for every algorithm and trial. Every
// algorithm of a trial queries one live database, as in the paper's
// setup: one dataset, environment and interface per trial, stepped
// round by round.
//
// Trials run concurrently on opt.workers() goroutines, each with a fully
// isolated environment. Per-trial outcomes are merged in trial-index
// order — every accumulator receives exactly one observation per trial,
// in the same order a sequential run adds them — so the result is
// byte-identical for every Workers value.
func RunTracking(spec TrackSpec, opt Options, trials int) (*TrackResult, error) {
	outs, err := runTrials(trials, opt.workers(), func(trial int) (*trackTrial, error) {
		return runTrackingTrial(spec, opt, trial)
	})
	if err != nil {
		return nil, err
	}

	type cell struct{ rel, est, queries, drills stats.Running }
	table := make(map[Algo][]cell)
	for _, a := range AllAlgos {
		table[a] = make([]cell, spec.Rounds)
	}
	truthAcc := make([]stats.Running, spec.Rounds)
	for _, tr := range outs {
		for round := 0; round < spec.Rounds; round++ {
			if tr.truthOK[round] {
				truthAcc[round].Add(tr.truth[round])
			}
		}
		for _, a := range AllAlgos {
			for round := 0; round < spec.Rounds; round++ {
				c := &table[a][round]
				tc := tr.cells[a][round]
				c.queries.Add(tc.queries)
				c.drills.Add(tc.drills)
				if tc.estOK {
					c.est.Add(tc.est)
					c.rel.Add(tc.rel)
				}
			}
		}
	}

	res := &TrackResult{
		Rounds:     spec.Rounds,
		RelErr:     map[Algo][]float64{},
		EstMean:    map[Algo][]float64{},
		EstSD:      map[Algo][]float64{},
		CumQueries: map[Algo][]float64{},
		CumDrills:  map[Algo][]float64{},
	}
	for round := 0; round < spec.Rounds; round++ {
		res.Truth = append(res.Truth, truthAcc[round].Mean())
	}
	for _, a := range AllAlgos {
		for round := 0; round < spec.Rounds; round++ {
			c := &table[a][round]
			res.RelErr[a] = append(res.RelErr[a], c.rel.Mean())
			res.EstMean[a] = append(res.EstMean[a], c.est.Mean())
			res.EstSD[a] = append(res.EstSD[a], c.est.StdDev())
			res.CumQueries[a] = append(res.CumQueries[a], c.queries.Mean())
			res.CumDrills[a] = append(res.CumDrills[a], c.drills.Mean())
		}
	}
	return res, nil
}

// Runner regenerates one figure. Most of Figs 2–19 are a TrackSpec from
// autosParams.spec plotted by errorPerRound or finalErrorSweep.
type Runner func(opt Options) (*Figure, error)

// figures lists every figure of the paper's evaluation, in its order.
var figures = []struct {
	id  string
	run Runner
}{
	{"fig2", Fig2}, {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
	{"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9},
	{"fig10", Fig10}, {"fig11", Fig11}, {"fig12", Fig12}, {"fig13", Fig13},
	{"fig14", Fig14}, {"fig15", Fig15}, {"fig16", Fig16}, {"fig17", Fig17},
	{"fig18", Fig18}, {"fig19", Fig19}, {"fig20", Fig20}, {"fig21", Fig21},
}

// IDs returns every figure ID in the paper's order.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, fig := range figures {
		ids[i] = fig.id
	}
	return ids
}

// Run regenerates the figure with the given ID.
func Run(id string, opt Options) (*Figure, error) {
	for _, fig := range figures {
		if fig.id == id {
			return fig.run(opt)
		}
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
}

// tailMean averages the last w entries of xs (all of xs if shorter).
func tailMean(xs []float64, w int) float64 {
	if len(xs) < w {
		w = len(xs)
	}
	if w == 0 {
		return 0
	}
	var s float64
	for _, v := range xs[len(xs)-w:] {
		s += v
	}
	return s / float64(w)
}

// roundsAxis builds 1..n as x values.
func roundsAxis(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	return x
}
