// Package experiments regenerates every figure of the paper's evaluation
// (§6, Figs 2–21). Each figure has a runner returning a Figure value —
// the same series the paper plots — printable as an aligned text table.
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
	"sort"
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
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	rows := [][]string{header}
	for i := range f.X {
		row := []string{f.xLabel(i)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, formatVal(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the figure as a CSV table (x column then one column
// per series) for external plotting tools.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Label)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range f.X {
		row := []string{f.xLabel(i)}
		for _, s := range f.Series {
			if i < len(s.Y) {
				row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func (f *Figure) xLabel(i int) string {
	if i < len(f.XLabels) {
		return f.XLabels[i]
	}
	return formatVal(f.X[i])
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
// update schedule, an interface, a set of aggregates, and the algorithms
// to compare.
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
	// Algos lists the algorithms to run (nil = all three).
	Algos []Algo
	// Pilot overrides RS's bootstrap parameter ϖ (0 = default 10).
	Pilot int
}

func (s TrackSpec) algos() []Algo {
	if len(s.Algos) == 0 {
		return AllAlgos
	}
	return s.Algos
}

// TrackResult carries everything the figures plot.
type TrackResult struct {
	Rounds int
	// Truth per round (identical across algorithms by construction).
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
// one fresh environment and estimator per algorithm, and RNGs derived
// from trialSeed(opt.Seed, trial). It never touches shared mutable
// state, so any number of trials may run concurrently.
func runTrackingTrial(spec TrackSpec, opt Options, trial int) (*trackTrial, error) {
	out := &trackTrial{
		truth:   make([]float64, spec.Rounds),
		truthOK: make([]bool, spec.Rounds),
		cells:   make(map[Algo][]trackCell, len(spec.algos())),
	}
	dataSeed := trialSeed(opt.Seed, trial)
	data := spec.Dataset(dataSeed)
	for _, a := range spec.algos() {
		cells := make([]trackCell, spec.Rounds)
		env, err := workload.NewEnv(data, spec.Initial, dataSeed+envSeedOffset)
		if err != nil {
			return nil, err
		}
		iface := hiddendb.NewIface(env.Store, spec.K, nil)
		cfg := estimator.Config{
			Rand:        rand.New(rand.NewSource(dataSeed + rngSeedOffset)),
			Pilot:       spec.Pilot,
			Parallelism: opt.Parallelism,
			DeltaTarget: spec.Delta,
		}
		est, err := estimator.New(string(a), env.Store.Schema(), spec.Aggs(env.Store.Schema()), cfg)
		if err != nil {
			return nil, err
		}
		cumQ, cumD := 0.0, 0.0
		prevTruth := math.NaN()
		var truthHist, estHist []float64
		for round := 1; round <= spec.Rounds; round++ {
			if round > 1 {
				if err := spec.Schedule(round, env); err != nil {
					return nil, err
				}
			}
			truth := est.Aggregates()[0].Truth(env.Store)
			truthHist = append(truthHist, truth)
			target := truth
			switch {
			case spec.Delta:
				target = truth - prevTruth
			case spec.Window > 0:
				target = tailMean(truthHist, spec.Window)
			}
			if err := est.Step(iface.NewSession(spec.G)); err != nil {
				return nil, err
			}
			cumQ += float64(est.UsedLastRound())
			cumD = float64(est.DrillDowns())

			c := &cells[round-1]
			c.queries = cumQ
			c.drills = cumD
			ready := (!spec.Delta || round > 1) && (spec.Window == 0 || round >= spec.Window)
			if a == spec.algos()[0] && ready {
				out.truth[round-1] = target
				out.truthOK[round-1] = true
			}
			var e estimator.Estimate
			var ok bool
			if spec.Delta {
				e, ok = est.EstimateDelta(0)
			} else {
				e, ok = est.Estimate(0)
			}
			value := e.Value
			if ok && spec.Window > 0 {
				estHist = append(estHist, e.Value)
				if len(estHist) >= spec.Window {
					value = tailMean(estHist, spec.Window)
				} else {
					ok = false
				}
			}
			if ok && ready {
				c.est = value
				c.rel = stats.RelativeError(value, target)
				c.estOK = true
			}
			prevTruth = truth
		}
		out.cells[a] = cells
	}
	return out, nil
}

// RunTracking executes the spec for every algorithm and trial. Every
// algorithm sees an identical database evolution (one dataset per trial,
// and one environment per algorithm built from it with the same seed),
// mirroring the paper's setup where all methods query the same live
// database.
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
	for _, a := range spec.algos() {
		table[a] = make([]cell, spec.Rounds)
	}
	truthAcc := make([]stats.Running, spec.Rounds)
	for _, tr := range outs {
		for round := 0; round < spec.Rounds; round++ {
			if tr.truthOK[round] {
				truthAcc[round].Add(tr.truth[round])
			}
		}
		for _, a := range spec.algos() {
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
	for _, a := range spec.algos() {
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

// Runner regenerates one figure.
type Runner func(opt Options) (*Figure, error)

// registry maps figure IDs to runners; populated by init() in the
// per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns all registered figure IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return figNum(ids[i]) < figNum(ids[j])
	})
	return ids
}

func figNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Run regenerates the figure with the given ID.
func Run(id string, opt Options) (*Figure, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	return r(opt)
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
