// Command perfbench is the repository's fixed-work benchmark. It builds
// the system in-process from the repo's packages, feeds it inputs made
// from --seed before any timing starts, runs one workload as a closed
// loop with one client, checks every answer, and prints one JSON result
// line last on stdout.
//
//	go run . --workload track-autos --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice on fresh set-ups, untraced and then traced, and prints the
// per-layer metrics from the traced pass plus the tracing overhead.
// --repeat runs it twice untraced and fails when the exact counts differ.
// BENCHMARK.json names the workloads and metrics; baseline.json records
// the seeds, the layers each workload loads and its traced split.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// passResult is one set-up plus timed run of a workload.
type passResult struct {
	setupS   []float64
	lat      []time.Duration
	failed   int
	broken   bool // a failure outside the timed ops (warm-up, churn)
	alloc    uint64
	heapLive uint64
	counts   counter
	layer    map[string]float64 // per-layer metrics (traced pass)
	shares   map[string]float64 // share of op time per layer (traced pass)
	trace    *tracer
	notes    []string

	allocStart, allocSkip uint64
}

func (r *passResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// beginTimed forces a GC so the timed ops start from a collected heap.
func (r *passResult) beginTimed() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocStart = ms.TotalAlloc
}

// excludeAlloc removes bytes allocated by untimed work between ops.
func (r *passResult) excludeAlloc(n uint64) { r.allocSkip += n }

// endTimed records allocation over the timed ops and the live heap after
// a forced GC. It collects twice: objects a sync.Pool dropped survive the
// first collection in the pool's victim cache.
func (r *passResult) endTimed() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - r.allocStart - r.allocSkip
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc
}

func (r *passResult) opsPerSec() float64 {
	var sum time.Duration
	for _, d := range r.lat {
		sum += d
	}
	return float64(len(r.lat)) / sum.Seconds()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times an untraced run sets the workload up;
// setup_s is their median.
const setupRuns = 5

// perLayerUnits names every per-layer metric with its unit.
var perLayerUnits = map[string]string{
	"hiddendb.search_ms":          "ms",
	"hiddendb.queries":            "count",
	"hiddendb.us_per_query":       "us",
	"hiddendb.cache_hit_ratio":    "ratio",
	"hiddendb.mutate_ms":          "ms",
	"hiddendb.lookup_us":          "us",
	"hiddendb.engine_us":          "us",
	"estimator.self_ms":           "ms",
	"estimator.drills":            "count",
	"estimator.queries_per_drill": "count",
	"estimator.rel_err":           "ratio",
	"tracking.checkpoint_kb":      "KB",
	"transport.us":                "us",
	"webiface.handler_us":         "us",
	"webiface.self_us":            "us",
	"webiface.response_kb":        "KB",
	"router.self_ms":              "ms",
	"router.fanout_ms":            "ms",
	"router.shard_skew_ms":        "ms",
	"router.fanouts":              "count",
	"router.retries":              "count",
	"router.handshake_ms":         "ms",
	"trace.overhead_pct":          "%",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 15, "measure about this long: the fixed op count is derived from it")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		repeat  = flag.Bool("repeat", false, "run twice and fail unless the exact counts agree")
		workDir = flag.String("work-dir", ".bench_build", "directory for checkpoint files and span dumps")
	)
	flag.Parse()
	s, err := specNamed(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad flags")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("run-%s-%d", s.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ops := s.timedOps(*seconds)
	genStart := time.Now()
	pass := inputsFor(s, *seed, ops, dir)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: %d timed ops + %d warm-up, inputs generated in %.2fs\n",
		s.name, *seed, ops, s.warm, time.Since(genStart).Seconds())

	var out result
	switch {
	case *repeat:
		a, b, err := twoPasses(pass, 1, false, false)
		if err != nil {
			return fail(err)
		}
		printCounts(a)
		printCounts(b)
		diff := diffCounts(a.counts, b.counts)
		for _, d := range diff {
			fmt.Fprintln(os.Stderr, "perfbench: count differs:", d)
		}
		out = endToEnd(s, b)
		out.Correct = out.Correct && ok(a) && len(diff) == 0
	case *trace == 0:
		r, err := pass(setupRuns, false)
		if err != nil {
			return fail(err)
		}
		printCounts(r)
		out = endToEnd(s, r)
	default:
		plain, traced, err := twoPasses(pass, 1, false, true)
		if err != nil {
			return fail(err)
		}
		printCounts(traced)
		out = perLayer(s, traced)
		out.Correct = out.Correct && ok(plain)
		overhead := (plain.opsPerSec() - traced.opsPerSec()) / plain.opsPerSec() * 100
		out.Metrics["trace.overhead_pct"] = metric{overhead, "%"}
		path := filepath.Join(*workDir, "spans", s.name+".tsv")
		if err := traced.trace.write(path); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; untraced %.2f ops/s, traced %.2f ops/s\n",
			len(traced.trace.spans), path, plain.opsPerSec(), traced.opsPerSec())
		printShares(traced)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// inputsFor generates the workload's inputs once and returns a pass
// runner over them; every pass reuses the same inputs.
func inputsFor(s *spec, seed int64, ops int, dir string) func(setups int, traced bool) (*passResult, error) {
	if s.router || s.universe > 0 {
		in := genServe(s, seed, ops)
		return func(setups int, traced bool) (*passResult, error) {
			return servePass(s, in, setups, traced)
		}
	}
	in := genTrack(s, seed, s.warm+ops)
	return func(setups int, traced bool) (*passResult, error) {
		return trackPass(s, in, seed, dir, setups, traced)
	}
}

func twoPasses(pass func(int, bool) (*passResult, error), setups int, t1, t2 bool) (*passResult, *passResult, error) {
	a, err := pass(setups, t1)
	if err != nil {
		return nil, nil, err
	}
	b, err := pass(setups, t2)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

func ok(r *passResult) bool { return r.failed == 0 && !r.broken }

func endToEnd(s *spec, r *passResult) result {
	n := len(r.lat)
	tail := tailPercent(n)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops, op_tail_ms is p%d, setups %v s\n", s.name, n, tail, r.setupS)
	return result{
		Correct:   ok(r),
		Attempted: n,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(r.setupS), "s"},
			"ops_per_s":       {r.opsPerSec(), "1/s"},
			"op_p50_ms":       {percentileMs(r.lat, 50), "ms"},
			"op_tail_ms":      {percentileMs(r.lat, tail), "ms"},
			"heap_live_mb":    {float64(r.heapLive) / (1 << 20), "MB"},
			"alloc_kb_per_op": {float64(r.alloc) / float64(n) / 1024, "KB"},
		},
	}
}

// perLayer reports the traced pass. The result names every per-layer
// metric, as BENCHMARK.json's result format asks; a layer the workload
// never reaches reads 0 there and is listed on stderr, and baseline.json
// records which layers each workload loads.
func perLayer(s *spec, r *passResult) result {
	out := result{Correct: ok(r), Attempted: len(r.lat), Failed: r.failed, Metrics: map[string]metric{}}
	var unreached []string
	for name, unit := range perLayerUnits {
		v, measured := r.layer[name]
		if !measured && name != "trace.overhead_pct" {
			unreached = append(unreached, name)
		}
		out.Metrics[name] = metric{v, unit}
	}
	sort.Strings(unreached)
	fmt.Fprintf(os.Stderr, "perfbench: %s does not reach, reported as 0: %s\n", s.name, strings.Join(unreached, " "))
	return out
}

func printCounts(r *passResult) {
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	line, _ := json.Marshal(map[string]any{"counts": r.counts})
	fmt.Println(string(line))
}

func printShares(r *passResult) {
	names := make([]string, 0, len(r.shares))
	for n := range r.shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: share of op time: %-18s %5.1f%%\n", n, 100*r.shares[n])
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}
