// Command dynagg-loadgen drives closed-loop HTTP load at a dynagg
// serving endpoint (a dynagg-serve or dynagg-router at -target, or an
// in-process one with -selfserve or -selfserve-router N) and reports
// latency percentiles, throughput and error rates as a JSON artifact —
// the end-to-end harness for the wire-level serving fast path.
//
// Workload shape: -clients workers, each sending its next single GET
// /v1/search as soon as it has read the previous response. Every request
// draws one of a deterministic universe of -queries conjunctive queries
// over the target's schema with Zipf skew -zipf (0 = uniform). Skew
// concentrates traffic on few keys, which is what makes the pre-encoded
// answer cache and singleflight dedup measurable.
//
// With -compare (-selfserve only) it runs a cache-cold pass (every
// request a fresh query) and a cache-hot pass (the configured skewed
// mix) and reports the cold/hot p50 ratio — the soft CI signal that the
// pre-encoded hit path is actually cheaper than engine execution.
//
// Examples:
//
//	dynagg-loadgen -selfserve -duration 10s -clients 32
//	dynagg-loadgen -target http://localhost:8080 -zipf 1.2
//	dynagg-loadgen -selfserve -compare -out BENCH_load.json
//	dynagg-loadgen -selfserve-router 4 -out BENCH_load_router.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
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
	target       string
	selfserve    bool
	routerShards int
	compare      bool
	out          string

	duration time.Duration
	warmup   time.Duration
	clients  int
	queries  int
	zipf     float64
	seed     int64

	// the self-served database, named as dynagg-serve's flags name it
	n, m, k int
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses args, runs the load test and writes its report. It returns
// the exit status: 2 for a bad flag, before any database is built, and
// 1 when the load test or the report write fails.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("dynagg-loadgen", flag.ExitOnError)
	var cfg config
	fs.StringVar(&cfg.target, "target", "", "base URL of a running dynagg-serve or dynagg-router (empty with -selfserve)")
	fs.BoolVar(&cfg.selfserve, "selfserve", false, "serve an in-process static store and load it over loopback HTTP")
	fs.IntVar(&cfg.routerShards, "selfserve-router", 0, "serve N in-process shard daemons behind a dynagg-router instead of one handler (implies -selfserve)")
	fs.BoolVar(&cfg.compare, "compare", false, "run cache-cold and cache-hot passes and report the p50 ratio (-selfserve only)")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report to this file (default stdout)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "measured load duration per pass")
	fs.DurationVar(&cfg.warmup, "warmup", time.Second, "warmup duration excluded from statistics")
	fs.IntVar(&cfg.clients, "clients", 16, "closed-loop worker count")
	fs.IntVar(&cfg.queries, "queries", 256, "distinct queries in the workload universe")
	fs.Float64Var(&cfg.zipf, "zipf", 1.1, "Zipf skew over the query universe (>1; 0 = uniform)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload and self-served database seed")
	fs.IntVar(&cfg.n, "n", 40000, "self-served dataset size")
	fs.IntVar(&cfg.m, "m", 8, "self-served attribute count")
	fs.IntVar(&cfg.k, "k", 250, "self-served interface top-k cap")
	fs.Parse(args) // ExitOnError: a malformed flag exits 2 here

	if cfg.routerShards > 0 {
		cfg.selfserve = true
	}
	var err error
	if cfg.selfserve {
		err = dbflags.DB{N: cfg.n, M: cfg.m, K: cfg.k}.Check()
	}
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{cfg.clients < 1, "-clients must be at least 1"},
		{cfg.queries < 1, "-queries must be at least 1"},
		{cfg.duration <= 0, "-duration must be positive"},
		{cfg.warmup < 0, "-warmup must be at least 0"},
		{!cfg.selfserve && cfg.target == "", "need -target URL or -selfserve"},
		{cfg.compare && !cfg.selfserve, "-compare requires -selfserve (both passes must hit a fresh store)"},
		{cfg.compare && cfg.routerShards > 0, "-compare measures the single-process answer cache; it does not combine with -selfserve-router"},
	} {
		if err == nil && c.bad {
			err = errors.New(c.msg)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "dynagg-loadgen:", err)
		return 2
	}

	rep, err := load(cfg)
	if err == nil {
		err = writeReport(rep, cfg.out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dynagg-loadgen:", err)
		return 1
	}
	return 0
}

// writeReport writes the indented JSON report to path, or to stdout when
// path is empty.
func writeReport(rep *report, path string) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// report is the BENCH_load.json shape.
type report struct {
	Config  reportConfig  `json:"config"`
	Passes  []passResult  `json:"passes"`
	ColdHot *coldHotRatio `json:"cold_hot,omitempty"`
}

type reportConfig struct {
	Target   string  `json:"target"`
	Duration string  `json:"duration"`
	Clients  int     `json:"clients"`
	Queries  int     `json:"queries"`
	Zipf     float64 `json:"zipf"`
	Router   int     `json:"router_shards,omitempty"`
	Seed     int64   `json:"seed"`
}

type passResult struct {
	Name          string  `json:"name"`
	Requests      int64   `json:"requests"`
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
	Histogram *latencyHistogram `json:"latency_histogram"`
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
	upper := make([]float64, len(bounds))
	for i, b := range bounds {
		upper[i] = b * 1000
	}
	return &latencyHistogram{
		UpperBoundsMs: upper,
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
	if cfg.selfserve {
		var srvs loopback
		defer srvs.close()
		var err error
		if cfg.routerShards > 0 {
			target, err = startSelfServeRouter(cfg, &srvs)
		} else {
			target, err = startSelfServe(cfg, &srvs)
		}
		if err != nil {
			return nil, err
		}
	}

	sch, err := fetchSchema(target)
	if err != nil {
		return nil, err
	}
	rep := &report{Config: reportConfig{
		Target: target, Duration: cfg.duration.String(), Clients: cfg.clients,
		Queries: cfg.queries, Zipf: cfg.zipf, Router: cfg.routerShards, Seed: cfg.seed,
	}}
	if !cfg.compare {
		rep.Passes = []passResult{runPass(cfg, target, "load", newMix(sch, cfg))}
		return rep, nil
	}

	// Cold pass: one fresh never-repeated query per request defeats the
	// answer cache, so every request pays engine execution and a full
	// encode. Hot pass: the configured skewed mix over a small universe,
	// where repeats serve pre-encoded bodies.
	cold := runPass(cfg, target, "cold", newColdMix(sch, cfg))
	hot := runPass(cfg, target, "hot", newMix(sch, cfg))
	rep.Passes = []passResult{cold, hot}
	ratio := 0.0
	if hot.P50Ms > 0 {
		ratio = cold.P50Ms / hot.P50Ms
	}
	rep.ColdHot = &coldHotRatio{ColdP50Ms: cold.P50Ms, HotP50Ms: hot.P50Ms, P50Ratio: ratio}
	return rep, nil
}

// wireSchema is the part of the serving /v1/schema shape the workload
// needs (kept local so the loadgen exercises the wire format as a real
// foreign client would).
type wireSchema struct {
	Attrs []struct {
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

// mix is a query universe and the sampler that picks each request's
// query from it. next is safe for concurrent callers.
type mix struct {
	urls []string // /v1/search request paths per query index
	mu   sync.Mutex
	draw func() int // called under mu
}

func (m *mix) next() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.urls[m.draw()]
}

// newMix builds the deterministic query universe and its skewed sampler.
func newMix(sch *wireSchema, cfg config) *mix {
	rng := rand.New(rand.NewSource(cfg.seed))
	m := &mix{urls: buildUniverse(sch, cfg.queries, rng)}
	if cfg.zipf > 1 && cfg.queries > 1 {
		z := rand.NewZipf(rng, cfg.zipf, 1, uint64(cfg.queries-1))
		m.draw = func() int { return int(z.Uint64()) }
	} else {
		m.draw = func() int { return rng.Intn(cfg.queries) }
	}
	return m
}

// newColdMix cycles through a universe so large relative to the pass
// that practically every request is a first-seen query.
func newColdMix(sch *wireSchema, cfg config) *mix {
	const size = 1 << 16
	m := &mix{urls: buildUniverse(sch, size, rand.New(rand.NewSource(cfg.seed+7)))}
	i := -1
	m.draw = func() int {
		i = (i + 1) % size
		return i
	}
	return m
}

// buildUniverse renders n deterministic conjunctive queries (1–2
// predicates, distinct attributes, values within each attribute's
// domain) as GET /v1/search paths.
func buildUniverse(sch *wireSchema, n int, rng *rand.Rand) []string {
	urls := make([]string, n)
	attrs := len(sch.Attrs)
	for i := range urls {
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
			dom := max(len(sch.Attrs[attr].Domain), 1)
			preds = append(preds, fmt.Sprintf("%d:%d", attr, rng.Intn(dom)))
		}
		slices.Sort(preds) // stable wire form; server sorts by attribute anyway
		urls[i] = "/v1/search?where=" + strings.Join(preds, "&where=")
	}
	return urls
}

// workerStats is one worker's private tally, merged after the pass: one
// latency per recorded request.
type workerStats struct {
	errors    int64
	s429      int64
	latencies []time.Duration
}

// runPass drives one measured pass: cfg.clients workers, each sending
// its next GET as soon as it has read the previous response. Requests
// started during the first cfg.warmup are sent but not recorded.
func runPass(cfg config, target string, name string, m *mix) passResult {
	base := strings.TrimRight(target, "/")
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: cfg.clients, MaxIdleConnsPerHost: cfg.clients},
	}
	defer client.CloseIdleConnections()
	warmupUntil := time.Now().Add(cfg.warmup)
	deadline := warmupUntil.Add(cfg.duration)

	stats := make([]workerStats, cfg.clients)
	var wg sync.WaitGroup
	for c := range stats {
		ws := &stats[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for start := time.Now(); start.Before(deadline); start = time.Now() {
				status, err := get(client, base+m.next())
				if !start.After(warmupUntil) {
					continue
				}
				ws.latencies = append(ws.latencies, time.Since(start))
				switch {
				case err != nil:
					ws.errors++
				case status == http.StatusTooManyRequests:
					ws.s429++
				case status != http.StatusOK:
					ws.errors++
				}
			}
		}()
	}
	wg.Wait()

	out := passResult{Name: name, Seconds: cfg.duration.Seconds()}
	var all []time.Duration
	for _, ws := range stats {
		out.Errors += ws.errors
		out.Status429 += ws.s429
		all = append(all, ws.latencies...)
	}
	out.Requests = int64(len(all))
	out.ThroughputRPS = float64(out.Requests) / out.Seconds
	if out.Requests > 0 {
		out.ErrorRate = float64(out.Errors) / float64(out.Requests)
		slices.Sort(all)
		out.MaxMs = ms(all[len(all)-1])
	}
	out.P50Ms = pctMs(all, 0.50)
	out.P90Ms = pctMs(all, 0.90)
	out.P95Ms = pctMs(all, 0.95)
	out.P99Ms = pctMs(all, 0.99)
	out.Histogram = newLatencyHistogram(all)
	return out
}

// get sends one GET and reads its whole body.
func get(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pctMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return ms(sorted[int(q*float64(len(sorted)-1))])
}

// loopback is the servers of a self-served target, shut down together.
type loopback []*http.Server

// serve serves h on a fresh loopback port and returns its base URL.
func (l *loopback) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	*l = append(*l, srv)
	return "http://" + ln.Addr().String(), nil
}

func (l loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range l {
		_ = srv.Shutdown(ctx)
	}
}

// startSelfServe builds the static database dynagg-serve builds from the
// same -seed, -n, -m and -k, and serves it through one webiface handler.
func startSelfServe(cfg config, srvs *loopback) (string, error) {
	env, err := dynagg.NewEnv(dynagg.AutosLikeN(cfg.seed, cfg.n, cfg.m), cfg.n*9/10, cfg.seed+1)
	if err != nil {
		return "", err
	}
	return srvs.serve(webiface.NewHandler(dynagg.NewIface(env.Store, cfg.k, nil)))
}

// startSelfServeRouter stands the multi-process topology up in one
// process: cfg.routerShards loopback shard daemons, each a 1-way store
// holding one hash partition of the same static database behind a
// ShardAdmin (what `dynagg-serve -shard-mode` runs), fronted by a router
// that performs the startup epoch handshake and then serves as the load
// target.
func startSelfServeRouter(cfg config, srvs *loopback) (string, error) {
	env, err := dynagg.NewShardedEnv(dynagg.AutosLikeN(cfg.seed, cfg.n, cfg.m), cfg.n*9/10, cfg.seed+1, cfg.routerShards)
	if err != nil {
		return "", err
	}
	bases := make([]string, cfg.routerShards)
	for i := range bases {
		var part []*schema.Tuple
		env.Store.Shard(i).ForEach(func(tp *schema.Tuple) { part = append(part, tp.Clone(tp.ID)) })
		ss := hiddendb.NewShardedStore(env.Store.Schema(), 1)
		if err := ss.ApplyBatch(part, nil); err != nil {
			return "", err
		}
		h := webiface.NewHandler(hiddendb.NewShardedIface(ss, cfg.k, nil))
		if bases[i], err = srvs.serve(router.NewShardAdmin(ss, h, router.AdminOptions{})); err != nil {
			return "", err
		}
	}
	rt, err := router.New(bases, router.Options{})
	if err != nil {
		return "", err
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		return "", err
	}
	return srvs.serve(rt)
}
