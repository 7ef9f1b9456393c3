package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/metrics"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/webiface"
)

// Options tunes a Router.
type Options struct {
	// Client is the base configuration for every shard connection
	// (HTTPClient, Retries, RequestTimeout, MinInterval). ObserveResponse
	// is reserved — the router installs its own epoch-watching hook.
	Client webiface.ClientOptions
	// PerKeyBudget caps the searches each API key may issue per epoch
	// (0 = unlimited). The router owns budget accounting for the whole
	// fleet; shard daemons behind it run unlimited.
	PerKeyBudget int
	// AdminTimeout bounds each admin call of the handshake and the
	// health probe (default 5s).
	AdminTimeout time.Duration
	// DebugRequests sizes the /v1/debug/requests ring (0 = default 64,
	// negative = disabled).
	DebugRequests int
	// SlowRequest is the latency at or above which a successful request
	// is recorded in the debug ring; failures always record (0 = default
	// 50ms, negative = record every request).
	SlowRequest time.Duration
	// Logger receives trace-correlated failure logs (nil = discard).
	Logger *slog.Logger
}

// Router is one logical hidden database over a fleet of shard daemons.
// It is a webiface.Backend: every search fans out to the shards under
// one pinned fleet epoch and the per-shard top-k partials merge with
// hiddendb.MergePartials, the top-k fold Epoch.Answer runs in process.
// ServeHTTP answers every /v1/ route but healthz through one
// webiface.Handler over that backend, so its envelopes, budgets and byte
// layouts are single-process serving's, and its answers are
// byte-identical to a single process serving the union of the shards.
// A fan-out that cannot merge every shard's answer under the pinned
// epoch — a shard down, an epoch mismatch, or shards whose tuple IDs
// overlap, so that a merge meets one ID twice — fails with a 503, never
// a partial answer.
//
// Concurrency: serving fan-outs hold pinMu for read; the epoch handshake
// holds it for write, so a query never straddles an epoch flip. Per-shard
// connection state (health, last observed epoch) is atomic.
type Router struct {
	conns []*shardConn
	opts  Options
	sch   *schema.Schema
	k     int
	admin *http.Client
	h     *webiface.Handler // serves every route but healthz over rt

	// pinMu pins the fleet epoch: fan-outs read-hold it, Handshake
	// write-holds it across freeze+publish.
	pinMu sync.RWMutex
	seq   atomic.Uint64 // current fleet epoch sequence (0 = none published)

	queries    atomic.Uint64
	fanouts    atomic.Uint64
	failures   atomic.Uint64
	handshakes atomic.Uint64

	// mergeHist times the top-k partial merge alone, so fan-out wait and
	// merge cost are separable.
	mergeHist obs.Histogram
	log       *slog.Logger
}

var _ webiface.Backend = (*Router)(nil)

// shardConn is the router's connection to one shard daemon.
type shardConn struct {
	base string
	c    *webiface.Client

	healthy  atomic.Bool
	lastSeq  atomic.Uint64 // last epoch seq observed on a serving response
	mismatch atomic.Bool   // sticky: served an epoch other than the pinned one

	hist  obs.Histogram // fan-out request latency distribution
	maxNs atomic.Int64  // slowest fan-out request so far
}

// observe records one fan-out request's latency.
func (sc *shardConn) observe(d time.Duration) {
	sc.hist.Observe(d)
	for {
		m := sc.maxNs.Load()
		if int64(d) <= m || sc.maxNs.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// New dials every shard daemon, verifies they agree on schema and k, and
// returns a router with no epoch pinned yet: call Handshake before
// serving (searches answer 503 unavailable until the first handshake
// lands).
func New(shards []string, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: no shard addresses")
	}
	if opts.AdminTimeout <= 0 {
		opts.AdminTimeout = 5 * time.Second
	}
	rt := &Router{
		opts:  opts,
		admin: &http.Client{Timeout: opts.AdminTimeout},
		log:   opts.Logger,
	}
	if rt.log == nil {
		rt.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Every concurrent client request fans out to EVERY shard, so the
	// shard connections see len(shards)× the router's own concurrency.
	// The default transport keeps only 2 idle conns per host, which
	// makes a loaded fan-out reconnect for almost every hop; give the
	// fleet a transport sized for it unless the caller brought their own
	// client.
	if opts.Client.HTTPClient == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0 // no cap beyond the per-host one
		tr.MaxIdleConnsPerHost = 256
		rt.opts.Client.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	}
	for _, base := range shards {
		sc := &shardConn{base: base}
		copts := rt.opts.Client
		copts.ObserveResponse = func(resp *http.Response) { rt.observeEpochHeader(sc, resp) }
		c, err := webiface.Dial(base, copts)
		if err != nil {
			return nil, fmt.Errorf("router: shard %s: %w", base, err)
		}
		sc.c = c
		sc.healthy.Store(true)
		rt.conns = append(rt.conns, sc)
	}
	rt.sch = rt.conns[0].c.Schema()
	rt.k = rt.conns[0].c.K()
	for _, sc := range rt.conns[1:] {
		if err := sameSchema(rt.sch, rt.k, sc.c.Schema(), sc.c.K()); err != nil {
			return nil, fmt.Errorf("router: shard %s: %w", sc.base, err)
		}
	}
	size, slow := opts.DebugRequests, opts.SlowRequest
	if size == 0 {
		size = webiface.DefaultDebugRequests
	}
	if slow == 0 {
		slow = webiface.DefaultSlowRequest
	}
	rt.h = webiface.NewHandler(rt)
	rt.h.SetPerKeyBudget(opts.PerKeyBudget)
	rt.h.SetRequestLog(size, slow)
	return rt, nil
}

// sameSchema rejects a fleet whose shards disagree on the serving
// contract — merged answers would be meaningless.
func sameSchema(a *schema.Schema, ak int, b *schema.Schema, bk int) error {
	if ak != bk {
		return fmt.Errorf("k mismatch: %d vs %d", bk, ak)
	}
	if a.M() != b.M() {
		return fmt.Errorf("schema mismatch: %d attrs vs %d", b.M(), a.M())
	}
	for i := 0; i < a.M(); i++ {
		x, y := a.Attr(i), b.Attr(i)
		if x.Name != y.Name || x.Nullable != y.Nullable || len(x.Domain) != len(y.Domain) {
			return fmt.Errorf("schema mismatch on attribute %d", i)
		}
		for j := range x.Domain {
			if x.Domain[j] != y.Domain[j] {
				return fmt.Errorf("schema mismatch on attribute %d", i)
			}
		}
	}
	return nil
}

// observeEpochHeader is the per-connection webiface ObserveResponse
// hook: it records the epoch a serving response was answered from and
// trips the sticky mismatch flag when it is not the pinned one — a shard
// that restarted mid-flight is serving data the rest of the fleet has
// moved past (or never reached), so its answers must not be merged.
func (rt *Router) observeEpochHeader(sc *shardConn, resp *http.Response) {
	h := resp.Header.Get(EpochHeader)
	if h == "" {
		return
	}
	seq, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return
	}
	sc.lastSeq.Store(seq)
	if pinned := rt.seq.Load(); pinned != 0 && seq != pinned {
		sc.mismatch.Store(true)
	}
}

// NumShards returns the fan-out width.
func (rt *Router) NumShards() int { return len(rt.conns) }

// Seq returns the currently pinned fleet epoch sequence (0 before the
// first handshake).
func (rt *Router) Seq() uint64 { return rt.seq.Load() }

// Version is Seq: the router answers from the pinned fleet epoch.
func (rt *Router) Version() uint64 { return rt.seq.Load() }

// K returns the fleet's top-k cap.
func (rt *Router) K() int { return rt.k }

// Schema returns the fleet schema.
func (rt *Router) Schema() *schema.Schema { return rt.sch }

// TotalQueries counts the queries the router has fanned out or tried to.
func (rt *Router) TotalQueries() uint64 { return rt.queries.Load() }

// CacheStats is zero: the router keeps no answer cache.
func (rt *Router) CacheStats() hiddendb.CacheStats { return hiddendb.CacheStats{} }

// LookupAnswer always misses, sending every search to a fan-out.
func (rt *Router) LookupAnswer([]byte) (*hiddendb.Answer, bool) { return nil, false }

// RetryCount sums retry attempts across all shard connections.
func (rt *Router) RetryCount() uint64 {
	var n uint64
	for _, sc := range rt.conns {
		n += sc.c.RetryCount()
	}
	return n
}

// ServeHTTP serves the same /v1/ surface as a shard daemon's serving
// handler, plus nothing else: the admin wire is shard-side only. Every
// route but healthz goes through the router's webiface.Handler. A search
// is first stamped with its trace: the caller's X-Dynagg-Trace is
// honoured so it survives the router hop, otherwise the router mints
// one. The trace is echoed on the response and rides the request
// context, with an obs.Fanout for the per-shard timings, to the shards
// and to the request's ring record.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/healthz":
		rt.serveHealthz(w)
	case "/v1/search":
		trace := r.Header.Get(obs.TraceHeader)
		if trace == "" {
			trace = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, trace)
		ctx := obs.WithFanout(obs.WithTrace(r.Context(), trace), new(obs.Fanout))
		rt.h.ServeHTTP(w, r.WithContext(ctx))
	case "/v1/metrics":
		rt.h.ServeHTTP(w, r)
		rt.writeFleetMetrics(w)
	default:
		rt.h.ServeHTTP(w, r)
	}
}

// wireHealth is the router's /v1/healthz body: the serve handler's
// status/api_version plus fleet visibility.
type wireHealth struct {
	Status        string `json:"status"`
	APIVersion    string `json:"api_version"`
	Epoch         uint64 `json:"epoch"`
	ShardsHealthy int    `json:"shards_healthy"`
	ShardsTotal   int    `json:"shards_total"`
}

func (rt *Router) serveHealthz(w http.ResponseWriter) {
	healthy := 0
	for _, sc := range rt.conns {
		if sc.healthy.Load() && !sc.mismatch.Load() {
			healthy++
		}
	}
	status := "ok"
	if healthy < len(rt.conns) || rt.seq.Load() == 0 {
		status = "degraded"
	}
	httpapi.WriteJSON(w, http.StatusOK, wireHealth{
		Status:        status,
		APIVersion:    httpapi.Version,
		Epoch:         rt.seq.Load(),
		ShardsHealthy: healthy,
		ShardsTotal:   len(rt.conns),
	})
}

// writeFleetMetrics appends the fleet families to the Handler's
// /v1/metrics document.
func (rt *Router) writeFleetMetrics(w http.ResponseWriter) {
	var b metrics.Builder
	b.Family("dynagg_router_fanouts_total", "counter", "Scatter-gather fan-outs issued to the shard fleet.")
	b.Value("dynagg_router_fanouts_total", float64(rt.fanouts.Load()))
	b.Family("dynagg_router_retries_total", "counter", "Shard request retry attempts across all connections.")
	b.Value("dynagg_router_retries_total", float64(rt.RetryCount()))
	b.Family("dynagg_router_failures_total", "counter", "Queries failed with an unavailable envelope (shard outage, epoch mismatch).")
	b.Value("dynagg_router_failures_total", float64(rt.failures.Load()))
	b.Family("dynagg_router_handshakes_total", "counter", "Fleet epoch handshakes attempted.")
	b.Value("dynagg_router_handshakes_total", float64(rt.handshakes.Load()))
	b.Family("dynagg_router_epoch_seq", "gauge", "Currently pinned fleet epoch sequence (0 = none).")
	b.Value("dynagg_router_epoch_seq", float64(rt.seq.Load()))
	b.Family("dynagg_router_shard_healthy", "gauge", "Per-shard health (1 = reachable and serving the pinned epoch).")
	for i, sc := range rt.conns {
		v := 0
		if sc.healthy.Load() && !sc.mismatch.Load() {
			v = 1
		}
		b.Int("dynagg_router_shard_healthy", v, "shard", strconv.Itoa(i))
	}
	// One loop per family: a metric's samples must stay grouped under
	// its own HELP/TYPE declaration (promcheck enforces this).
	hists := make([]obs.HistogramSnapshot, len(rt.conns))
	for i, sc := range rt.conns {
		hists[i] = sc.hist.Snapshot()
	}
	b.Family("dynagg_router_shard_requests_total", "counter", "Requests issued to each shard.")
	for i, hs := range hists {
		b.Value("dynagg_router_shard_requests_total", float64(hs.Count), "shard", strconv.Itoa(i))
	}
	b.Family("dynagg_router_shard_latency_seconds_sum", "counter", "Total request latency per shard.")
	for i, hs := range hists {
		b.Value("dynagg_router_shard_latency_seconds_sum", hs.SumSeconds, "shard", strconv.Itoa(i))
	}
	b.Family("dynagg_router_shard_latency_seconds_max", "gauge", "Maximum request latency per shard.")
	for i, sc := range rt.conns {
		b.Value("dynagg_router_shard_latency_seconds_max", time.Duration(sc.maxNs.Load()).Seconds(), "shard", strconv.Itoa(i))
	}
	bounds := obs.Bounds()
	b.Family("dynagg_router_merge_seconds", "histogram", "Top-k partial merge time per answered request.")
	mergeSnap := rt.mergeHist.Snapshot()
	b.Histogram("dynagg_router_merge_seconds", bounds, mergeSnap.Counts, mergeSnap.SumSeconds)
	b.Family("dynagg_router_shard_request_seconds", "histogram", "Fan-out request latency per shard connection.")
	for i, hs := range hists {
		b.Histogram("dynagg_router_shard_request_seconds", bounds, hs.Counts, hs.SumSeconds, "shard", strconv.Itoa(i))
	}
	_, _ = b.WriteTo(w)
}

// SearchAnswer answers one query by fan-out; see SearchAnswerContext.
func (rt *Router) SearchAnswer(q hiddendb.Query) (*hiddendb.Answer, error) {
	return rt.SearchAnswerContext(context.Background(), q)
}

// SearchAnswerContext answers one query with a GET to every shard under
// the pinned fleet epoch and merges the per-shard partials into one
// Answer. A shard that errors, or whose response carried an epoch other
// than the pinned one, fails the whole fan-out. ctx carries the request's
// trace to the shards; the per-shard timings go to the context's
// obs.Fanout, failures to the log.
func (rt *Router) SearchAnswerContext(ctx context.Context, q hiddendb.Query) (*hiddendb.Answer, error) {
	rt.queries.Add(1)
	rt.pinMu.RLock()
	defer rt.pinMu.RUnlock()
	pinned := rt.seq.Load()
	if pinned == 0 {
		return nil, rt.fail(ctx, errors.New("no fleet epoch published yet (handshake pending)"))
	}
	rt.fanouts.Add(1)
	parts := make([]hiddendb.Result, len(rt.conns))
	errs := make([]error, len(rt.conns))
	timings := make([]obs.ShardTiming, len(rt.conns))
	var wg sync.WaitGroup
	for i, sc := range rt.conns {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			start := time.Now()
			parts[i], errs[i] = sc.c.SearchContext(ctx, q)
			d := time.Since(start)
			sc.observe(d)
			timings[i] = obs.ShardTiming{Shard: i, DurationMs: obs.DurationMs(d)}
		}(i, sc)
	}
	wg.Wait()
	var firstErr error
	for i, sc := range rt.conns {
		var err error
		switch {
		case errs[i] != nil:
			sc.healthy.Store(false)
			err = errs[i]
			timings[i].Error = err.Error()
		case sc.mismatch.Load():
			err = fmt.Errorf("answered epoch %d, fleet pinned %d (re-handshake required)", sc.lastSeq.Load(), pinned)
			timings[i].Error = "epoch mismatch"
		default:
			sc.healthy.Store(true)
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("shard %d (%s): %w", i, sc.base, err)
		}
	}
	if f := obs.FanoutFrom(ctx); f != nil {
		f.Shards = timings
	}
	if firstErr != nil {
		return nil, rt.fail(ctx, firstErr)
	}
	start := time.Now()
	res, err := hiddendb.MergePartials(parts, rt.k)
	if err != nil {
		return nil, rt.fail(ctx, err)
	}
	rt.mergeHist.Observe(time.Since(start))
	return hiddendb.NewAnswer(res), nil
}

// fail counts and logs a fan-out that cannot answer; the Handler turns
// the error into the 503 unavailable envelope.
func (rt *Router) fail(ctx context.Context, err error) error {
	rt.failures.Add(1)
	rt.log.Warn("fan-out failed", "trace", obs.TraceID(ctx), "error", err)
	return err
}
