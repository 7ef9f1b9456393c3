// Command dynagg-loadgen drives parameterized HTTP load at a dynagg
// serving endpoint (dynagg-serve, or its own in-process server with
// -selfserve) and reports latency percentiles, throughput and error
// rates as a JSON artifact — the repo's ReqBench-style proof harness
// for the wire-level serving fast path.
//
// Workload shape:
//
//   - Query mix: a deterministic universe of -queries conjunctive
//     queries over the target's schema, drawn per request with Zipf
//     skew -zipf (0 = uniform). Skew concentrates traffic on few keys,
//     which is what makes the pre-encoded answer cache and singleflight
//     dedup measurable.
//   - Tenants: requests carry one of -tenants API keys round-robin, so
//     per-key budget accounting and 429 behaviour are exercised.
//   - Arrival: closed-loop by default (-clients workers, each waiting
//     for its response before sending the next), or open-loop with
//     -rate arrivals/sec where latency includes queueing — the
//     coordinated-omission-free mode. -burst-rate/-burst-every/-burst-len
//     overlay a square-wave burst on the open-loop schedule.
//   - Batching: -batch B > 1 issues batched POST /v1/search bodies of B
//     queries instead of single GETs.
//
// With -compare (selfserve only) it runs a cache-cold pass (every
// request a distinct query) and a cache-hot pass (the configured skewed
// mix) and reports the cold/hot p50 ratio — the soft CI signal that the
// pre-encoded hit path is actually cheaper than engine execution.
//
// Examples:
//
//	dynagg-loadgen -selfserve -duration 10s -clients 32
//	dynagg-loadgen -target http://localhost:8080 -rate 2000 -zipf 1.2
//	dynagg-loadgen -selfserve -compare -out BENCH_load.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	dynagg "github.com/dynagg/dynagg"
	"github.com/dynagg/dynagg/internal/dbflags"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/router"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/webiface"
)

type config struct {
	target    string
	selfserve bool
	compare   bool
	out       string

	duration time.Duration
	warmup   time.Duration
	clients  int
	rate     float64
	inflight int

	burstRate  float64
	burstEvery time.Duration
	burstLen   time.Duration

	queries int
	zipf    float64
	tenants int
	batch   int
	seed    int64

	// latency/error SLOs, hard-failed (exit 3) after the report is
	// written; 0 disables each
	sloP50Ms     float64
	sloP95Ms     float64
	sloP99Ms     float64
	sloErrorRate float64

	// selfserve knobs
	n, m, k      int
	budget       int
	round        time.Duration
	insert       int
	deleteFrac   float64
	shards       int
	routerShards int
	selfserveLog bool
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses args, runs the load test and writes its report. It returns
// the exit status: 2 for a bad flag, before any database is built, and
// 3 for a violated SLO.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynagg-loadgen", flag.ExitOnError)
	var cfg config
	fs.StringVar(&cfg.target, "target", "", "base URL of a running dynagg-serve (empty with -selfserve)")
	fs.BoolVar(&cfg.selfserve, "selfserve", false, "serve an in-process simulated store and load it over loopback HTTP")
	fs.BoolVar(&cfg.compare, "compare", false, "run cache-cold and cache-hot passes and report the p50 ratio (selfserve only)")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report to this file (default stdout)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "measured load duration per pass")
	fs.DurationVar(&cfg.warmup, "warmup", time.Second, "warmup duration excluded from statistics")
	fs.IntVar(&cfg.clients, "clients", 16, "closed-loop worker count (ignored when -rate > 0)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
	fs.IntVar(&cfg.inflight, "max-inflight", 512, "open-loop concurrent request cap (arrivals past it queue, counted in latency)")
	fs.Float64Var(&cfg.burstRate, "burst-rate", 0, "open-loop burst arrival rate (0 = no bursts)")
	fs.DurationVar(&cfg.burstEvery, "burst-every", 5*time.Second, "burst period")
	fs.DurationVar(&cfg.burstLen, "burst-len", time.Second, "burst window length")
	fs.IntVar(&cfg.queries, "queries", 256, "distinct queries in the workload universe")
	fs.Float64Var(&cfg.zipf, "zipf", 1.1, "Zipf skew over the query universe (>1; 0 = uniform)")
	fs.IntVar(&cfg.tenants, "tenants", 4, "distinct API keys cycled across requests (0 = anonymous)")
	fs.IntVar(&cfg.batch, "batch", 0, "queries per batched POST (0/1 = single GETs)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload randomness seed")
	fs.IntVar(&cfg.n, "n", 40000, "selfserve: dataset size")
	fs.IntVar(&cfg.m, "m", 8, "selfserve: attribute count")
	fs.IntVar(&cfg.k, "k", 250, "selfserve: interface top-k cap")
	fs.IntVar(&cfg.budget, "budget", 0, "selfserve: per-key budget per round (0 = unlimited)")
	fs.DurationVar(&cfg.round, "round", 0, "selfserve: churn round length (0 = static database)")
	fs.IntVar(&cfg.insert, "insert", 300, "selfserve: tuples inserted per round")
	fs.Float64Var(&cfg.deleteFrac, "delete", 0.001, "selfserve: fraction deleted per round")
	fs.IntVar(&cfg.shards, "shards", 1, "selfserve: hash-partition the store N ways")
	fs.IntVar(&cfg.routerShards, "selfserve-router", 0, "selfserve: run N in-process shard daemons behind a dynagg-router instead of one handler (static data)")
	fs.BoolVar(&cfg.selfserveLog, "selfserve-log", false, "selfserve: log churn rounds")
	fs.Float64Var(&cfg.sloP50Ms, "slo-p50", 0, "fail (exit 3) if any pass's p50 exceeds this many ms (0 = off)")
	fs.Float64Var(&cfg.sloP95Ms, "slo-p95", 0, "fail (exit 3) if any pass's p95 exceeds this many ms (0 = off)")
	fs.Float64Var(&cfg.sloP99Ms, "slo-p99", 0, "fail (exit 3) if any pass's p99 exceeds this many ms (0 = off)")
	fs.Float64Var(&cfg.sloErrorRate, "slo-error-rate", 0, "fail (exit 3) if any pass's error rate exceeds this fraction (0 = off)")
	fs.Parse(args) // ExitOnError: a malformed flag exits 2 here

	if cfg.routerShards > 0 {
		cfg.selfserve = true // -selfserve-router implies an in-process target
	}
	if cfg.selfserve {
		db := dbflags.DB{N: cfg.n, M: cfg.m, K: cfg.k, Insert: cfg.insert, Delete: cfg.deleteFrac}
		if err := db.Check(); err != nil {
			fmt.Fprintln(stderr, "dynagg-loadgen:", err)
			return 2
		}
	}
	if cfg.target == "" && !cfg.selfserve {
		log.Fatal("need -target URL or -selfserve (a -target may point at a dynagg-router as well as a dynagg-serve)")
	}
	if cfg.compare && !cfg.selfserve {
		log.Fatal("-compare requires -selfserve (both passes must hit a fresh store)")
	}
	if cfg.compare && cfg.routerShards > 0 {
		log.Fatal("-compare measures the single-process answer cache; it does not combine with -selfserve-router")
	}

	report, err := load(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report.SLO = evaluateSLOs(cfg, report.Passes)
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if cfg.out == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(cfg.out, raw, 0o644); err != nil {
		log.Fatal(err)
	} else {
		log.Printf("wrote %s", cfg.out)
	}
	// SLO verdict AFTER the report lands, so a violated run still leaves
	// its artifact behind for the postmortem.
	if report.SLO != nil && !report.SLO.Passed {
		for _, v := range report.SLO.Violations {
			log.Printf("SLO violation: %s", v)
		}
		return 3
	}
	return 0
}

// sloResult records the configured latency/error-rate objectives and
// every per-pass (per workload class) violation.
type sloResult struct {
	P50LimitMs     float64  `json:"p50_limit_ms,omitempty"`
	P95LimitMs     float64  `json:"p95_limit_ms,omitempty"`
	P99LimitMs     float64  `json:"p99_limit_ms,omitempty"`
	ErrorRateLimit float64  `json:"error_rate_limit,omitempty"`
	Violations     []string `json:"violations"`
	Passed         bool     `json:"passed"`
}

// evaluateSLOs checks every pass against the configured objectives; nil
// when no SLO flag is set.
func evaluateSLOs(cfg config, passes []passResult) *sloResult {
	if cfg.sloP50Ms == 0 && cfg.sloP95Ms == 0 && cfg.sloP99Ms == 0 && cfg.sloErrorRate == 0 {
		return nil
	}
	out := &sloResult{
		P50LimitMs:     cfg.sloP50Ms,
		P95LimitMs:     cfg.sloP95Ms,
		P99LimitMs:     cfg.sloP99Ms,
		ErrorRateLimit: cfg.sloErrorRate,
		Violations:     []string{},
	}
	check := func(pass string, metric string, got, limit float64, unit string) {
		if limit > 0 && got > limit {
			out.Violations = append(out.Violations,
				fmt.Sprintf("pass %s: %s %.3f%s exceeds SLO %.3f%s", pass, metric, got, unit, limit, unit))
		}
	}
	for _, p := range passes {
		check(p.Name, "p50", p.P50Ms, cfg.sloP50Ms, "ms")
		check(p.Name, "p95", p.P95Ms, cfg.sloP95Ms, "ms")
		check(p.Name, "p99", p.P99Ms, cfg.sloP99Ms, "ms")
		check(p.Name, "error rate", p.ErrorRate, cfg.sloErrorRate, "")
	}
	out.Passed = len(out.Violations) == 0
	return out
}

// report is the BENCH_load.json shape.
type report struct {
	Config   reportConfig  `json:"config"`
	Passes   []passResult  `json:"passes"`
	ColdHot  *coldHotRatio `json:"cold_hot,omitempty"`
	SLO      *sloResult    `json:"slo,omitempty"`
	ServerMs float64       `json:"-"`
}

type reportConfig struct {
	Target   string  `json:"target"`
	Duration string  `json:"duration"`
	Clients  int     `json:"clients"`
	RateRPS  float64 `json:"rate_rps"`
	Queries  int     `json:"queries"`
	Zipf     float64 `json:"zipf"`
	Tenants  int     `json:"tenants"`
	Batch    int     `json:"batch"`
	Shards   int     `json:"shards"`
	Router   int     `json:"router_shards,omitempty"`
	Seed     int64   `json:"seed"`
}

type passResult struct {
	Name          string  `json:"name"`
	Requests      int64   `json:"requests"`
	QueriesSent   int64   `json:"queries_sent"`
	Seconds       float64 `json:"seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Errors        int64   `json:"errors"`
	Status429     int64   `json:"status_429"`
	ErrorRate     float64 `json:"error_rate"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	// Histogram is the pass's full latency distribution in the shared
	// fixed obs bucket layout (log2 bounds), so offline analysis can
	// derive any percentile and compare runs bucket-for-bucket.
	Histogram *latencyHistogram `json:"latency_histogram,omitempty"`
}

// latencyHistogram serialises one pass's latency distribution:
// per-bucket (non-cumulative) counts over the fixed internal/obs bounds,
// with the overflow bucket last.
type latencyHistogram struct {
	UpperBoundsMs []float64 `json:"upper_bounds_ms"`
	Counts        []uint64  `json:"counts"`
	Count         uint64    `json:"count"`
	SumMs         float64   `json:"sum_ms"`
}

// newLatencyHistogram folds the recorded latencies into the obs layout.
func newLatencyHistogram(durs []time.Duration) *latencyHistogram {
	var h obs.Histogram
	for _, d := range durs {
		h.Observe(d)
	}
	s := h.Snapshot()
	bounds := obs.Bounds()
	ms := make([]float64, len(bounds))
	for i, b := range bounds {
		ms[i] = b * 1000
	}
	return &latencyHistogram{
		UpperBoundsMs: ms,
		Counts:        s.Counts,
		Count:         s.Count,
		SumMs:         s.SumSeconds * 1000,
	}
}

type coldHotRatio struct {
	ColdP50Ms float64 `json:"cold_p50_ms"`
	HotP50Ms  float64 `json:"hot_p50_ms"`
	P50Ratio  float64 `json:"cold_hot_p50_ratio"`
}

func load(cfg config) (*report, error) {
	target := cfg.target
	var shutdown func()
	if cfg.selfserve {
		var err error
		if cfg.routerShards > 0 {
			target, shutdown, err = startSelfServeRouter(cfg)
		} else {
			target, shutdown, err = startSelfServe(cfg)
		}
		if err != nil {
			return nil, err
		}
		defer shutdown()
	}

	sch, err := fetchSchema(target)
	if err != nil {
		return nil, err
	}

	rep := &report{Config: reportConfig{
		Target: target, Duration: cfg.duration.String(), Clients: cfg.clients,
		RateRPS: cfg.rate, Queries: cfg.queries, Zipf: cfg.zipf,
		Tenants: cfg.tenants, Batch: cfg.batch, Shards: cfg.shards,
		Router: cfg.routerShards, Seed: cfg.seed,
	}}

	if cfg.compare {
		// Cold pass: one fresh never-repeated query per request defeats
		// the answer cache, so every request pays engine execution and a
		// full encode. Hot pass: the configured skewed mix over a small
		// universe, where repeats serve pre-encoded bodies.
		cold, err := runPass(cfg, target, "cold", newColdMix(sch, cfg))
		if err != nil {
			return nil, err
		}
		hot, err := runPass(cfg, target, "hot", newMix(sch, cfg))
		if err != nil {
			return nil, err
		}
		rep.Passes = []passResult{*cold, *hot}
		ratio := 0.0
		if hot.P50Ms > 0 {
			ratio = cold.P50Ms / hot.P50Ms
		}
		rep.ColdHot = &coldHotRatio{ColdP50Ms: cold.P50Ms, HotP50Ms: hot.P50Ms, P50Ratio: ratio}
		return rep, nil
	}

	pass, err := runPass(cfg, target, "load", newMix(sch, cfg))
	if err != nil {
		return nil, err
	}
	rep.Passes = []passResult{*pass}
	return rep, nil
}

// wireSchema mirrors the serving /v1/schema shape (kept local so the
// loadgen exercises the wire format as a real foreign client would).
type wireSchema struct {
	K     int `json:"k"`
	Attrs []struct {
		Name   string   `json:"name"`
		Domain []string `json:"domain"`
	} `json:"attrs"`
}

func fetchSchema(target string) (*wireSchema, error) {
	resp, err := http.Get(strings.TrimRight(target, "/") + "/v1/schema")
	if err != nil {
		return nil, fmt.Errorf("schema fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("schema fetch: %s", resp.Status)
	}
	var sch wireSchema
	if err := json.NewDecoder(resp.Body).Decode(&sch); err != nil {
		return nil, fmt.Errorf("schema decode: %w", err)
	}
	if len(sch.Attrs) == 0 {
		return nil, errors.New("schema fetch: no attributes")
	}
	return &sch, nil
}

// mix generates one request's query index per draw. next must be safe
// for concurrent callers.
type mix struct {
	urls   []string   // pre-built single-GET request URLs per query index
	wheres [][]string // predicate strings per query index (batch bodies)
	next   func() int
}

// newMix builds the deterministic query universe and its skewed sampler.
func newMix(sch *wireSchema, cfg config) *mix {
	rng := rand.New(rand.NewSource(cfg.seed))
	m := buildUniverse(sch, cfg.queries, rng)
	if cfg.zipf > 1 && cfg.queries > 1 {
		var mu sync.Mutex
		z := rand.NewZipf(rng, cfg.zipf, 1, uint64(cfg.queries-1))
		m.next = func() int {
			mu.Lock()
			v := int(z.Uint64())
			mu.Unlock()
			return v
		}
	} else {
		var mu sync.Mutex
		m.next = func() int {
			mu.Lock()
			v := rng.Intn(cfg.queries)
			mu.Unlock()
			return v
		}
	}
	return m
}

// newColdMix cycles through a universe so large relative to the pass
// that practically every request is a first-seen query: a fresh
// sequential index per draw over universeSize entries built on demand.
func newColdMix(sch *wireSchema, cfg config) *mix {
	// Enough distinct queries that even a fast pass never wraps: the
	// universe is all 1-pred and 2-pred combinations, cycled.
	rng := rand.New(rand.NewSource(cfg.seed + 7))
	size := 1 << 16
	m := buildUniverse(sch, size, rng)
	var mu sync.Mutex
	i := 0
	m.next = func() int {
		mu.Lock()
		v := i % size
		i++
		mu.Unlock()
		return v
	}
	return m
}

// buildUniverse materializes n deterministic conjunctive queries (1–2
// predicates, distinct attributes, values within each attribute's
// domain) plus their pre-rendered GET URLs and batch predicate strings.
func buildUniverse(sch *wireSchema, n int, rng *rand.Rand) *mix {
	m := &mix{urls: make([]string, n), wheres: make([][]string, n)}
	attrs := len(sch.Attrs)
	for i := 0; i < n; i++ {
		np := 1 + rng.Intn(2)
		if attrs == 1 {
			np = 1
		}
		a0 := rng.Intn(attrs)
		var preds []string
		for p := 0; p < np; p++ {
			attr := a0
			if p == 1 {
				for attr == a0 {
					attr = rng.Intn(attrs)
				}
			}
			dom := len(sch.Attrs[attr].Domain)
			if dom == 0 {
				dom = 1
			}
			preds = append(preds, fmt.Sprintf("%d:%d", attr, rng.Intn(dom)))
		}
		sort.Strings(preds) // stable wire form; server sorts by attribute anyway
		m.wheres[i] = preds
		m.urls[i] = "/v1/search?where=" + strings.Join(preds, "&where=")
	}
	return m
}

// workerStats is one goroutine's private tally, merged after the pass.
type workerStats struct {
	requests  int64
	queries   int64
	errors    int64
	s429      int64
	latencies []time.Duration
}

// runPass drives one measured load pass and reduces its statistics.
func runPass(cfg config, target string, name string, m *mix) (*passResult, error) {
	base := strings.TrimRight(target, "/")
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.inflight + cfg.clients,
			MaxIdleConnsPerHost: cfg.inflight + cfg.clients,
		},
	}

	var tenantCtr int64
	var tenantMu sync.Mutex
	tenant := func() string {
		if cfg.tenants <= 0 {
			return ""
		}
		tenantMu.Lock()
		t := tenantCtr
		tenantCtr++
		tenantMu.Unlock()
		return fmt.Sprintf("tenant-%d", t%int64(cfg.tenants))
	}

	// one issues a single logical request (GET, or a POST batch of
	// cfg.batch queries) and records it into ws when record is true.
	one := func(ws *workerStats, record bool, start time.Time) {
		var resp *http.Response
		var err error
		nq := 1
		if cfg.batch > 1 {
			nq = cfg.batch
			var body strings.Builder
			body.WriteString(`{"queries":[`)
			for b := 0; b < cfg.batch; b++ {
				if b > 0 {
					body.WriteByte(',')
				}
				body.WriteString(`{"where":["`)
				body.WriteString(strings.Join(m.wheres[m.next()], `","`))
				body.WriteString(`"]}`)
			}
			body.WriteString(`]}`)
			req, rerr := http.NewRequest(http.MethodPost, base+"/v1/search", strings.NewReader(body.String()))
			if rerr != nil {
				err = rerr
			} else {
				req.Header.Set("Content-Type", "application/json")
				if k := tenant(); k != "" {
					req.Header.Set("X-API-Key", k)
				}
				resp, err = client.Do(req)
			}
		} else {
			req, rerr := http.NewRequest(http.MethodGet, base+m.urls[m.next()], nil)
			if rerr != nil {
				err = rerr
			} else {
				if k := tenant(); k != "" {
					req.Header.Set("X-API-Key", k)
				}
				resp, err = client.Do(req)
			}
		}
		var status int
		if err == nil {
			status = resp.StatusCode
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if !record {
			return
		}
		elapsed := time.Since(start)
		ws.requests++
		ws.queries += int64(nq)
		switch {
		case err != nil:
			ws.errors++
		case status == http.StatusTooManyRequests:
			ws.s429++
		case status != http.StatusOK:
			ws.errors++
		}
		ws.latencies = append(ws.latencies, elapsed)
	}

	warmupUntil := time.Now().Add(cfg.warmup)
	deadline := warmupUntil.Add(cfg.duration)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	var stats []*workerStats
	if cfg.rate > 0 {
		stats = runOpenLoop(ctx, cfg, warmupUntil, one)
	} else {
		stats = runClosedLoop(ctx, cfg, warmupUntil, one)
	}

	out := &passResult{Name: name, Seconds: cfg.duration.Seconds()}
	var all []time.Duration
	for _, ws := range stats {
		out.Requests += ws.requests
		out.QueriesSent += ws.queries
		out.Errors += ws.errors
		out.Status429 += ws.s429
		all = append(all, ws.latencies...)
	}
	if out.Seconds > 0 {
		out.ThroughputRPS = float64(out.Requests) / out.Seconds
	}
	if out.Requests > 0 {
		out.ErrorRate = float64(out.Errors) / float64(out.Requests)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out.P50Ms = pctMs(all, 0.50)
	out.P90Ms = pctMs(all, 0.90)
	out.P95Ms = pctMs(all, 0.95)
	out.P99Ms = pctMs(all, 0.99)
	if len(all) > 0 {
		out.MaxMs = float64(all[len(all)-1]) / float64(time.Millisecond)
	}
	out.Histogram = newLatencyHistogram(all)
	return out, nil
}

// runClosedLoop: each of cfg.clients workers issues its next request as
// soon as the previous response is fully read.
func runClosedLoop(ctx context.Context, cfg config, warmupUntil time.Time, one func(*workerStats, bool, time.Time)) []*workerStats {
	stats := make([]*workerStats, cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		ws := &workerStats{}
		stats[c] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				start := time.Now()
				one(ws, start.After(warmupUntil), start)
			}
		}()
	}
	wg.Wait()
	return stats
}

// runOpenLoop schedules arrivals at cfg.rate (with optional square-wave
// bursts) independent of response times; each arrival's latency starts
// at its SCHEDULED time, so queueing behind the -max-inflight cap is
// measured, not hidden (no coordinated omission).
func runOpenLoop(ctx context.Context, cfg config, warmupUntil time.Time, one func(*workerStats, bool, time.Time)) []*workerStats {
	var mu sync.Mutex
	var stats []*workerStats
	pool := sync.Pool{New: func() any { return &workerStats{} }}
	sem := make(chan struct{}, cfg.inflight)
	var wg sync.WaitGroup

	launch := func(scheduled time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ws := pool.Get().(*workerStats)
			one(ws, scheduled.After(warmupUntil), scheduled)
			pool.Put(ws)
		}()
	}

	start := time.Now()
	next := start
	for ctx.Err() == nil {
		rate := cfg.rate
		if cfg.burstRate > cfg.rate && cfg.burstEvery > 0 {
			phase := time.Since(start) % cfg.burstEvery
			if phase < cfg.burstLen {
				rate = cfg.burstRate
			}
		}
		interval := time.Duration(float64(time.Second) / rate)
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
			if ctx.Err() != nil {
				break
			}
		}
		launch(next)
		next = next.Add(interval)
	}
	wg.Wait()

	// Drain the pool into a merged snapshot. Pool entries not currently
	// checked out are all entries, since every launch returned.
	for {
		ws := pool.Get().(*workerStats)
		if ws.requests == 0 && len(ws.latencies) == 0 {
			break
		}
		mu.Lock()
		stats = append(stats, ws)
		mu.Unlock()
	}
	return stats
}

func pctMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// startSelfServe builds a local simulated store (sharded when
// -shards > 1), mounts the webiface handler on a loopback listener and
// returns its base URL. The optional churn round mirrors dynagg-serve.
func startSelfServe(cfg config) (string, func(), error) {
	data := dynagg.AutosLikeN(cfg.seed, cfg.n, cfg.m)
	init0 := cfg.n * 9 / 10

	var iface webiface.Backend
	var churn func() error
	if cfg.shards > 1 {
		env, err := dynagg.NewShardedEnv(data, init0, cfg.seed+1, cfg.shards)
		if err != nil {
			return "", nil, err
		}
		iface = dynagg.NewShardedIface(env.Store, cfg.k, nil)
		churn = func() error {
			if err := env.InsertFromPool(cfg.insert); err != nil {
				return err
			}
			if err := env.DeleteFraction(cfg.deleteFrac); err != nil {
				return err
			}
			env.Store.AdvanceEpoch()
			return nil
		}
	} else {
		env, err := dynagg.NewEnv(data, init0, cfg.seed+1)
		if err != nil {
			return "", nil, err
		}
		iface = dynagg.NewIface(env.Store, cfg.k, nil)
		churn = func() error {
			if err := env.InsertFromPool(cfg.insert); err != nil {
				return err
			}
			return env.DeleteFraction(cfg.deleteFrac)
		}
	}

	h := webiface.NewHandler(iface)
	h.SetPerKeyBudget(cfg.budget)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()

	stop := make(chan struct{})
	if cfg.round > 0 {
		go func() {
			t := time.NewTicker(cfg.round)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if err := churn(); err != nil {
					log.Printf("selfserve churn: %v", err)
				}
				h.ResetBudgets()
				if cfg.selfserveLog {
					log.Printf("selfserve round: version=%d queries=%d", iface.Version(), iface.TotalQueries())
				}
			}
		}()
	}

	shutdown := func() {
		close(stop)
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// startSelfServeRouter stands up the multi-process topology in one
// process: N loopback shard daemons (a 1-way store behind a ShardAdmin,
// exactly what `dynagg-serve -shard-mode` runs) fronted by a router that
// performs the startup epoch handshake and then serves as the load
// target. The fleet is static — churn needs real daemons driving their
// own mutators — but a -round ticker still re-handshakes the fleet so
// per-key budgets reset on epoch boundaries like production.
func startSelfServeRouter(cfg config) (string, func(), error) {
	data := dynagg.AutosLikeN(cfg.seed, cfg.n, cfg.m)
	init0 := cfg.n * 9 / 10
	env, err := dynagg.NewShardedEnv(data, init0, cfg.seed+1, cfg.routerShards)
	if err != nil {
		return "", nil, err
	}
	if cfg.round > 0 && (cfg.insert > 0 || cfg.deleteFrac > 0) {
		log.Printf("selfserve-router: churn flags ignored (static fleet); rounds only re-handshake epochs")
	}

	var (
		bases []string
		srvs  []*http.Server
	)
	closeAll := func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, s := range srvs {
			_ = s.Shutdown(sctx)
		}
	}
	for i := 0; i < cfg.routerShards; i++ {
		var part []*schema.Tuple
		env.Store.Shard(i).ForEach(func(tp *schema.Tuple) { part = append(part, tp.Clone(tp.ID)) })
		ss := hiddendb.NewShardedStore(env.Store.Schema(), 1)
		if err := ss.ApplyBatch(part, nil); err != nil {
			closeAll()
			return "", nil, err
		}
		h := webiface.NewHandler(hiddendb.NewShardedIface(ss, cfg.k, nil))
		admin := router.NewShardAdmin(ss, h, router.AdminOptions{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return "", nil, err
		}
		srv := &http.Server{Handler: admin}
		go func() { _ = srv.Serve(ln) }()
		srvs = append(srvs, srv)
		bases = append(bases, "http://"+ln.Addr().String())
	}

	rt, err := router.New(bases, router.Options{PerKeyBudget: cfg.budget})
	if err != nil {
		closeAll()
		return "", nil, err
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		closeAll()
		return "", nil, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeAll()
		return "", nil, err
	}
	rsrv := &http.Server{Handler: rt}
	go func() { _ = rsrv.Serve(rln) }()
	srvs = append(srvs, rsrv)

	stop := make(chan struct{})
	if cfg.round > 0 {
		go func() {
			t := time.NewTicker(cfg.round)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if seq, err := rt.Handshake(context.Background()); err != nil {
					log.Printf("selfserve-router handshake: %v", err)
				} else if cfg.selfserveLog {
					log.Printf("selfserve-router round: fleet epoch %d", seq)
				}
			}
		}()
	}

	shutdown := func() {
		close(stop)
		closeAll()
	}
	return "http://" + rln.Addr().String(), shutdown, nil
}
