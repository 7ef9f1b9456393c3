// Package webiface connects the estimators to hidden databases that live
// on the other side of an HTTP API — the setting of the paper's live
// experiments (Amazon Product Advertising API, eBay Finding API).
//
// It provides both halves:
//
//   - Client: a hiddendb.Searcher that translates conjunctive queries
//     into HTTP requests, with rate limiting and bounded retries — so a
//     dynagg.Tracker can track a remote database unchanged.
//   - Handler: an http.Handler exposing a Backend through the same wire
//     format — a simulated hiddendb store in tests and demos, or the
//     multi-process router's fleet.
//
// The wire format is deliberately tiny: a GET with the conjunctive
// predicates encoded as repeated "where=attr:value" query parameters,
// answered by JSON:
//
//	{"k":100,"overflow":true,"tuples":[{"id":7,"vals":[1,0,3],"aux":[19.5]}]}
//
// Many queries go out in one round trip as a batched POST /v1/search
// (see wireBatchRequest); the server answers the whole batch under a
// single snapshot/epoch pin, charging the per-key budget once per query.
// Errors are the shared JSON envelope of internal/httpapi. All routes
// are mounted under "/v1/" only — the unversioned aliases of the first
// versioned release have been removed and now answer 404 with the
// standard envelope.
//
// Serving is wire-level fast-pathed (encode.go): requests parse into
// pooled scratch, answers memoize their serialized JSON on the shared
// per-version cache entry, and repeat queries under an unchanged
// version are served with a single pre-encoded buffer write. A Client
// decodes native answers with the inverse walk (decode.go) and falls back
// to encoding/json on any other body. docs/perf.md ("Wire fast path")
// documents the ownership rules.
//
// Real sites need a site-specific request builder and response parser;
// both are injectable (RequestFunc / ParseFunc).
package webiface

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/metrics"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/schema"
)

// wireTuple is the JSON encoding of one returned tuple.
type wireTuple struct {
	ID   uint64    `json:"id"`
	Vals []uint16  `json:"vals"`
	Aux  []float64 `json:"aux,omitempty"`
}

// wireResult is the JSON encoding of a search answer.
type wireResult struct {
	K        int         `json:"k"`
	Overflow bool        `json:"overflow"`
	Tuples   []wireTuple `json:"tuples"`
}

// wireBatchRequest is the JSON body of a batched POST /search: one
// "where" predicate list per query, same "attr:value" strings as the GET
// parameter.
type wireBatchRequest struct {
	Queries []wireBatchQuery `json:"queries"`
}

type wireBatchQuery struct {
	Where []string `json:"where"`
}

// wireBatchResponse answers a batch: one item per query, in order. Each
// item carries either the query's result or a per-query error envelope
// payload (budget exhaustion).
type wireBatchResponse struct {
	K       int             `json:"k"`
	Results []wireBatchItem `json:"results"`
}

type wireBatchItem struct {
	Result *wireResult    `json:"result,omitempty"`
	Error  *httpapi.Error `json:"error,omitempty"`
}

// wireSchema is the JSON encoding of the schema discovery endpoint.
type wireSchema struct {
	K     int        `json:"k"`
	Attrs []wireAttr `json:"attrs"`
}

type wireAttr struct {
	Name     string   `json:"name"`
	Domain   []string `json:"domain"`
	Nullable bool     `json:"nullable,omitempty"`
}

// Backend is the search capability a Handler serves: hiddendb.Iface (one
// store, answers track its current snapshot), hiddendb.ShardedIface (N
// shards, answers scatter-gathered off the pinned epoch) or router.Router
// (shard daemons, answers fanned out under the pinned fleet epoch).
// SearchBatchAnswer must answer its whole batch under ONE snapshot/epoch
// pin; its error, like SearchAnswer's, means the backend cannot answer
// right now (503 unavailable). Version is a serving diagnostic (store
// version, or epoch sequence when sharded or routed).
//
// The handler answers only through Answers, so it can memoize serialized
// JSON next to each Result (hiddendb.Answer.Wire); LookupAnswer probes
// the cache by raw key bytes without constructing a Query. Implementations
// must keep the lookup observationally equivalent to SearchAnswer — same
// Result values, same version semantics — so responses are byte-identical
// whether they come off a cache hit, a miss, a singleflight winner or a
// waiter.
type Backend interface {
	SearchAnswer(q hiddendb.Query) (*hiddendb.Answer, error)
	SearchBatchAnswer(ctx context.Context, qs []hiddendb.Query) ([]*hiddendb.Answer, error)
	LookupAnswer(key []byte) (*hiddendb.Answer, bool)
	CacheStats() hiddendb.CacheStats
	K() int
	Schema() *schema.Schema
	TotalQueries() uint64
	Version() uint64
}

// contextSearcher is a Backend whose GET misses need the request context:
// the router, whose fan-out carries the request's trace to the shards and
// its per-shard timings back to the ring record. In-process backends do
// not implement it, so their miss path stays the plain SearchAnswer.
type contextSearcher interface {
	SearchAnswerContext(ctx context.Context, q hiddendb.Query) (*hiddendb.Answer, error)
}

var _ Backend = (*hiddendb.Iface)(nil)
var _ Backend = (*hiddendb.ShardedIface)(nil)

// Handler exposes a Backend through the wire format. Routes
// (versioned only — the deprecated unversioned aliases were removed
// after their one-release grace period and return 404 envelopes):
//
//	GET  /v1/schema           → wireSchema
//	GET  /v1/search?where=... → wireResult
//	POST /v1/search           → wireBatchResponse (batched queries, one
//	                            snapshot/epoch pin, one budget charge per
//	                            query)
//	GET  /v1/stats            → wireStats
//	GET  /v1/healthz          → {"status":"ok","api_version":"v1"}
//	GET  /v1/metrics          → Prometheus-style plaintext (query counts,
//	                            serving version, per-key budget accounting,
//	                            per-route latency histograms)
//	GET  /v1/debug/requests   → recent slow/failed requests (trace ID,
//	                            route, outcome, latency), newest first
//
// Errors are the internal/httpapi JSON envelope.
//
// A Handler is safe for concurrent use by any number of clients: queries
// are answered against the backend's immutable snapshot or epoch of the
// current round (every backend is concurrent-reader-safe), and the
// per-API-key budget accounting below is guarded by its own mutex.
// Clients identify themselves with an X-API-Key header (or key= query
// parameter); absent both, they share the anonymous bucket.
type Handler struct {
	b  Backend
	cs contextSearcher // b, when its misses take the request context

	mu           sync.Mutex
	perKeyBudget int
	used         map[string]int

	// lat holds the per-route latency histograms /v1/metrics exports as
	// dynagg_serve_request_seconds. Observes are lock-free atomic adds,
	// so the warm-GET alloc budget is untouched; the GET search route is
	// split by answer-cache outcome (hit/miss/error).
	lat struct {
		searchHit, searchMiss, searchErr obs.Histogram
		searchBatch, searchBatchErr      obs.Histogram
		schema, stats                    obs.Histogram
	}
	// reqlog is the fixed-size ring of recent slow/failed requests
	// served at /v1/debug/requests; failures always record, successes
	// only at or above the slow threshold, so the hot path pays two
	// comparisons.
	reqlog *obs.RequestLog
}

// Request-log defaults: big enough to catch a burst, slow enough that a
// healthy warm cache never records (and so never allocates) on the hot
// path.
const (
	DefaultDebugRequests = 64
	DefaultSlowRequest   = 50 * time.Millisecond
)

// NewHandler wraps a search backend for serving.
func NewHandler(b Backend) *Handler {
	cs, _ := b.(contextSearcher)
	return &Handler{
		b:      b,
		cs:     cs,
		used:   make(map[string]int),
		reqlog: obs.NewRequestLog(DefaultDebugRequests, DefaultSlowRequest),
	}
}

// SetRequestLog resizes the /v1/debug/requests ring: size <= 0 disables
// recording, slow <= 0 records every request (tests, short debugging
// sessions). Call before serving — the log is swapped, not drained.
func (h *Handler) SetRequestLog(size int, slow time.Duration) {
	h.reqlog = obs.NewRequestLog(size, slow)
}

// SetPerKeyBudget caps the searches each API key may issue per round
// (g <= 0 means unlimited — the default). Over-budget searches get HTTP
// 429, modelling the database-imposed limit G of paper §2.1.
func (h *Handler) SetPerKeyBudget(g int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.perKeyBudget = g
}

// ResetBudgets starts a new round: every key's budget is restored.
func (h *Handler) ResetBudgets() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.used = make(map[string]int)
}

// consumeBudget charges one query to the given key, reporting whether the
// key is still within budget.
func (h *Handler) consumeBudget(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.perKeyBudget > 0 && h.used[key] >= h.perKeyBudget {
		return false
	}
	h.used[key]++
	return true
}

// ServeHTTP implements http.Handler. Only the versioned "/v1/..." paths
// route; the unversioned aliases of the first versioned release are gone
// and fall through to the 404 envelope like any unknown path.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/schema":
		start := time.Now()
		h.serveSchema(w)
		h.lat.schema.Observe(time.Since(start))
	case "/v1/search":
		if r.Method == http.MethodPost {
			h.serveSearchBatch(w, r)
			return
		}
		h.serveSearch(w, r)
	case "/v1/stats":
		start := time.Now()
		h.serveStats(w)
		h.lat.stats.Observe(time.Since(start))
	case "/v1/healthz":
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{
			"status":      "ok",
			"api_version": httpapi.Version,
		})
	case "/v1/metrics":
		h.serveMetrics(w)
	case "/v1/debug/requests":
		h.reqlog.ServeJSON(w)
	default:
		httpapi.WriteError(w, http.StatusNotFound, httpapi.CodeNotFound, "no such route: "+r.URL.Path)
	}
}

// serveMetrics renders serving diagnostics as Prometheus plaintext: the
// lifetime query count, the store version the interface answers for, and
// the per-API-key round-budget accounting (keys emitted in sorted order
// so scrapes are diffable). Like /stats it omits |D| — hiding the size
// is the whole point of the interface.
func (h *Handler) serveMetrics(w http.ResponseWriter) {
	h.mu.Lock()
	budget := h.perKeyBudget
	used := make(map[string]int, len(h.used))
	for k, v := range h.used {
		used[k] = v
	}
	h.mu.Unlock()

	var b metrics.Builder
	b.Family("dynagg_serve_queries_total", "counter", "Lifetime queries answered across all clients.")
	b.Value("dynagg_serve_queries_total", float64(h.b.TotalQueries()))
	b.Family("dynagg_serve_store_version", "gauge", "Store version currently answered from.")
	b.Value("dynagg_serve_store_version", float64(h.b.Version()))
	cs := h.b.CacheStats()
	b.Family("dynagg_serve_answer_cache_hits_total", "counter", "Queries served from the per-version answer cache (including pre-encoded fast-path hits).")
	b.Value("dynagg_serve_answer_cache_hits_total", float64(cs.Hits))
	b.Family("dynagg_serve_answer_cache_misses_total", "counter", "Queries that ran the answering engine (cache misses and cache-bypass paths).")
	b.Value("dynagg_serve_answer_cache_misses_total", float64(cs.Misses))
	b.Family("dynagg_serve_answer_cache_collapsed_total", "counter", "Concurrent identical queries collapsed into another execution's result (singleflight waiters).")
	b.Value("dynagg_serve_answer_cache_collapsed_total", float64(cs.Collapsed))
	b.Family("dynagg_serve_per_key_budget", "gauge", "Per-API-key query budget per round (0 = unlimited).")
	b.Int("dynagg_serve_per_key_budget", budget)
	b.Family("dynagg_serve_key_queries_used", "gauge", "Queries charged to each API key this round.")
	for _, k := range metrics.SortedKeys(used) {
		b.Int("dynagg_serve_key_queries_used", used[k], "key", k)
	}
	b.Family("dynagg_serve_key_budget_remaining", "gauge", "Budget left for each API key this round (-1 when unlimited).")
	for _, k := range metrics.SortedKeys(used) {
		if budget > 0 {
			b.Int("dynagg_serve_key_budget_remaining", budget-used[k], "key", k)
		} else {
			b.Int("dynagg_serve_key_budget_remaining", -1, "key", k)
		}
	}
	b.Family("dynagg_serve_request_seconds", "histogram", "Handler latency by route; GET search is split by answer-cache outcome.")
	bounds := obs.Bounds()
	emit := func(hist *obs.Histogram, labels ...string) {
		s := hist.Snapshot()
		b.Histogram("dynagg_serve_request_seconds", bounds, s.Counts, s.SumSeconds, labels...)
	}
	emit(&h.lat.searchHit, "route", routeSearch, "outcome", outcomeHit)
	emit(&h.lat.searchMiss, "route", routeSearch, "outcome", outcomeMiss)
	emit(&h.lat.searchErr, "route", routeSearch, "outcome", outcomeError)
	emit(&h.lat.searchBatch, "route", routeSearchBatch, "outcome", outcomeBatch)
	emit(&h.lat.searchBatchErr, "route", routeSearchBatch, "outcome", outcomeError)
	emit(&h.lat.schema, "route", "schema")
	emit(&h.lat.stats, "route", "stats")
	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = b.WriteTo(w)
}

// wireStats is the JSON encoding of the serving diagnostics endpoint.
// It deliberately omits |D| — the whole point of the hidden-database
// model is that clients cannot read the size off the interface.
type wireStats struct {
	K       int    `json:"k"`
	Queries uint64 `json:"queries"`
	Version uint64 `json:"version"`
}

func (h *Handler) serveStats(w http.ResponseWriter) {
	httpapi.WriteJSON(w, http.StatusOK, wireStats{
		K:       h.b.K(),
		Queries: h.b.TotalQueries(),
		Version: h.b.Version(),
	})
}

// apiKey extracts the client's key from the request.
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return r.URL.Query().Get("key")
}

func (h *Handler) serveSchema(w http.ResponseWriter) {
	sch := h.b.Schema()
	out := wireSchema{K: h.b.K()}
	for i := 0; i < sch.M(); i++ {
		a := sch.Attr(i)
		out.Attrs = append(out.Attrs, wireAttr{Name: a.Name, Domain: a.Domain, Nullable: a.Nullable})
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// parseWhere validates and assembles one batch query's "attr:value"
// predicate strings against the schema. NewQuery panics on duplicates
// (trusted-caller API), so untrusted wire input is rejected before it
// gets there.
func (h *Handler) parseWhere(where []string) (hiddendb.Query, error) {
	sch := h.b.Schema()
	var preds []hiddendb.Pred
	seen := make(map[int]bool)
	for _, raw := range where {
		attr, val, err := parsePred(raw)
		if err != nil {
			return hiddendb.Query{}, err
		}
		if attr < 0 || attr >= sch.M() {
			return hiddendb.Query{}, fmt.Errorf("unknown attribute %d", attr)
		}
		if seen[attr] {
			return hiddendb.Query{}, fmt.Errorf("duplicate predicate on attribute %d", attr)
		}
		seen[attr] = true
		preds = append(preds, hiddendb.Pred{Attr: attr, Val: val})
	}
	return hiddendb.NewQuery(preds...), nil
}

func (h *Handler) wireResultOf(res hiddendb.Result) wireResult {
	out := wireResult{K: h.b.K(), Overflow: res.Overflow}
	for _, t := range res.Tuples {
		out.Tuples = append(out.Tuples, wireTuple{ID: t.ID, Vals: t.Vals, Aux: t.Aux})
	}
	return out
}

// serveSearch answers a single GET query through the wire fast path:
// parse into pooled scratch, charge the budget, probe the answer cache
// by scratch-built key bytes, and serve the pre-encoded body on a hit.
// Only a miss constructs a Query and runs the engine — and even then the
// encode it pays is memoized for every later hit at this version.
func (h *Handler) serveSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := getReqScratch()
	defer putReqScratch(sc)
	qkey, err := h.parseSearchParams(r, sc)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		h.recordSearchFailure(r, start, routeSearch, http.StatusBadRequest, err.Error())
		return
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		key = qkey
	}
	// Charge the budget only for well-formed queries: a request rejected
	// at parse time was never answered, so it must not burn a unit of G.
	if !h.consumeBudget(key) {
		httpapi.WriteError(w, http.StatusTooManyRequests, httpapi.CodeBudgetExhausted, budgetExhaustedMsg)
		h.recordSearchFailure(r, start, routeSearch, http.StatusTooManyRequests, budgetExhaustedMsg)
		return
	}
	sortPreds(sc.preds)
	sc.key = hiddendb.AppendPredsKey(sc.key[:0], sc.preds)
	if a, ok := h.b.LookupAnswer(sc.key); ok {
		h.writeAnswer(w, a)
		h.finishSearch(r, start, &h.lat.searchHit, outcomeHit)
		return
	}
	q := hiddendb.NewQuery(sc.preds...)
	var a *hiddendb.Answer
	if h.cs != nil {
		a, err = h.cs.SearchAnswerContext(r.Context(), q)
	} else {
		a, err = h.b.SearchAnswer(q)
	}
	if err != nil {
		h.unavailable(w, r, start, routeSearch, err)
		return
	}
	h.writeAnswer(w, a)
	h.finishSearch(r, start, &h.lat.searchMiss, outcomeMiss)
}

// Route and outcome label values for dynagg_serve_request_seconds and
// the request log.
const (
	routeSearch      = "search"
	routeSearchBatch = "search_batch"
	outcomeHit       = "hit"
	outcomeMiss      = "miss"
	outcomeError     = "error"
	outcomeBatch     = "batch"
)

// finishSearch closes a successful search: one lock-free histogram
// Observe — no allocation, keeping the warm-GET budget at the single
// response write — plus a ring record only when the request was slow.
func (h *Handler) finishSearch(r *http.Request, start time.Time, hist *obs.Histogram, outcome string) {
	d := time.Since(start)
	hist.Observe(d)
	if h.reqlog.Qualifies(d, false) {
		h.record(r, obs.RequestRecord{Route: routeSearch, Status: http.StatusOK, DurationMs: obs.DurationMs(d), Outcome: outcome})
	}
}

// recordSearchFailure observes a failed request into the route's error
// histogram and always records it in the ring — error paths already
// allocate, so the record costs nothing the envelope didn't.
func (h *Handler) recordSearchFailure(r *http.Request, start time.Time, route string, status int, detail string) {
	d := time.Since(start)
	if route == routeSearch {
		h.lat.searchErr.Observe(d)
	} else {
		h.lat.searchBatchErr.Observe(d)
	}
	if h.reqlog.Qualifies(d, true) {
		h.record(r, obs.RequestRecord{Route: route, Status: status, DurationMs: obs.DurationMs(d), Outcome: outcomeError, Detail: detail})
	}
}

// unavailable answers a backend error — a router fan-out that cannot
// answer coherently — with the 503 unavailable envelope.
func (h *Handler) unavailable(w http.ResponseWriter, r *http.Request, start time.Time, route string, err error) {
	httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeUnavailable, err.Error())
	h.recordSearchFailure(r, start, route, http.StatusServiceUnavailable, err.Error())
}

// record adds one request to the debug ring at the current version. The
// trace and any per-shard fan-out timings come from the request context
// when the router put them there; otherwise the trace is the inbound
// header's.
func (h *Handler) record(r *http.Request, rec obs.RequestRecord) {
	ctx := r.Context()
	if rec.Trace = obs.TraceID(ctx); rec.Trace == "" {
		rec.Trace = r.Header.Get(obs.TraceHeader)
	}
	if f := obs.FanoutFrom(ctx); f != nil {
		rec.Shards = f.Shards
	}
	rec.Epoch = h.b.Version()
	h.reqlog.Record(rec)
}

// budgetExhaustedMsg is the message of every budget_exhausted envelope.
const budgetExhaustedMsg = "per-round query budget exhausted"

// batchBudgetErrJSON is the pre-rendered wireBatchItem for a query the
// per-key budget could not cover — byte-identical to encoding/json over
// the equivalent envelope payload.
const batchBudgetErrJSON = `{"error":{"code":"` + httpapi.CodeBudgetExhausted +
	`","message":"` + budgetExhaustedMsg + `"}}`

// decodeBatch unmarshals a batch body into the pooled scratch's request
// struct. encoding/json decodes into the existing backing array when
// capacity allows and merges into whatever the elements already hold, so
// a query object that omits "where" (a valid match-all query) would
// silently inherit predicates from whichever request last used this
// scratch. Zero every reusable element before decoding.
func decodeBatch(body []byte, sc *reqScratch) error {
	clear(sc.req.Queries[:cap(sc.req.Queries)])
	sc.req.Queries = sc.req.Queries[:0]
	return json.Unmarshal(body, &sc.req)
}

// serveSearchBatch answers a POST /search: many queries, one round trip,
// one snapshot/epoch pin, one budget charge per query. Any malformed
// query rejects the WHOLE batch with 400 before any budget is charged;
// after that, queries are charged in order and the ones the per-key
// budget cannot cover come back as per-item budget_exhausted errors while
// the covered ones are answered together via Backend.SearchBatchAnswer.
func (h *Handler) serveSearchBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := getReqScratch()
	defer putReqScratch(sc)
	body, err := readBody(r.Body, sc.body)
	sc.body = body
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "batch decode: "+err.Error())
		h.recordSearchFailure(r, start, routeSearchBatch, http.StatusBadRequest, "batch decode: "+err.Error())
		return
	}
	if err := decodeBatch(body, sc); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, "batch decode: "+err.Error())
		h.recordSearchFailure(r, start, routeSearchBatch, http.StatusBadRequest, "batch decode: "+err.Error())
		return
	}
	qs := append(sc.qs[:0], make([]hiddendb.Query, len(sc.req.Queries))...)
	sc.qs = qs
	for i, wq := range sc.req.Queries {
		q, err := h.parseWhere(wq.Where)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				fmt.Sprintf("query %d: %s", i, err))
			h.recordSearchFailure(r, start, routeSearchBatch, http.StatusBadRequest, err.Error())
			return
		}
		qs[i] = q
	}
	key := apiKey(r)
	charged := make([]hiddendb.Query, 0, len(qs))
	chargedIdx := make([]int, 0, len(qs))
	inBudget := make([]bool, len(qs))
	for i, q := range qs {
		if !h.consumeBudget(key) {
			continue
		}
		inBudget[i] = true
		charged = append(charged, q)
		chargedIdx = append(chargedIdx, i)
	}
	// One epoch/snapshot pin for the whole covered batch; each answer's
	// wire bytes are memoized on its shared cache entry, so the splice
	// below is a copy per item, not an encode per item, once warm.
	covered, err := h.b.SearchBatchAnswer(r.Context(), charged)
	if err != nil {
		h.unavailable(w, r, start, routeSearchBatch, err)
		return
	}
	answers := make([]*hiddendb.Answer, len(qs))
	for j, a := range covered {
		answers[chargedIdx[j]] = a
	}
	buf := append(sc.buf[:0], `{"k":`...)
	buf = strconv.AppendInt(buf, int64(h.b.K()), 10)
	buf = append(buf, `,"results":[`...)
	for i := range qs {
		if i > 0 {
			buf = append(buf, ',')
		}
		if !inBudget[i] {
			buf = append(buf, batchBudgetErrJSON...)
			continue
		}
		buf = append(buf, `{"result":`...)
		buf = append(buf, answers[i].Wire(h.encodeResult)...)
		buf = append(buf, '}')
	}
	buf = append(buf, `]}`...)
	buf = append(buf, '\n')
	sc.buf = buf
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf)
	d := time.Since(start)
	h.lat.searchBatch.Observe(d)
	if h.reqlog.Qualifies(d, false) {
		h.record(r, obs.RequestRecord{Route: routeSearchBatch, Status: http.StatusOK, DurationMs: obs.DurationMs(d), Outcome: outcomeBatch})
	}
}

func parsePred(raw string) (int, uint16, error) {
	attrS, valS, found := strings.Cut(raw, ":")
	if !found {
		return 0, 0, fmt.Errorf("webiface: bad predicate %q (want attr:value)", raw)
	}
	attr, err := strconv.Atoi(attrS)
	if err != nil {
		return 0, 0, fmt.Errorf("webiface: bad attribute in %q", raw)
	}
	val, err := strconv.ParseUint(valS, 10, 16)
	if err != nil {
		return 0, 0, fmt.Errorf("webiface: bad value in %q", raw)
	}
	return attr, uint16(val), nil
}

// RequestFunc builds the HTTP request for a conjunctive query. The
// default encodes the /search?where=attr:value convention.
type RequestFunc func(ctx context.Context, base string, q hiddendb.Query) (*http.Request, error)

// ParseFunc decodes an HTTP response into a search result for a
// site-specific wire format. The native format needs none: without one,
// a Client walks each answer with its own decoder (see ClientOptions).
type ParseFunc func(resp *http.Response) (hiddendb.Result, error)

// ClientOptions tunes a Client.
type ClientOptions struct {
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// MinInterval rate-limits requests (0 = no limit). Real APIs enforce
	// per-second caps on top of daily quotas; the budget G is still the
	// tracker's to manage.
	MinInterval time.Duration
	// Retries is the number of times a failed request is retried with
	// exponential backoff (default 2).
	Retries int
	// RequestTimeout bounds each request attempt (0 = rely on
	// HTTPClient's own timeout). A timed-out attempt is retried;
	// cancellation of the caller's context is not.
	RequestTimeout time.Duration
	// APIKey, when set, is sent as the X-API-Key header so the server
	// can account this client's per-round budget (see Handler).
	APIKey string
	// Request and Parse override the wire format for site-specific APIs.
	Request RequestFunc
	// Parse decodes responses. When nil, the client decodes the native
	// wire itself: a walk over the exact layout the Handler writes, with
	// encoding/json for any other body, refusing (without retry) an answer
	// whose k differs from the k the client dialed.
	Parse ParseFunc
	// ObserveResponse, when set, is called with every HTTP response the
	// native wire receives, after transport success and before status
	// classification. The multi-process router uses it to watch the
	// X-Dynagg-Epoch header shard daemons attach to their answers. The
	// hook must not read or close the body.
	ObserveResponse func(*http.Response)
}

// Client is a hiddendb.Searcher over HTTP. It is safe for concurrent use
// by multiple goroutines — the rate limiter hands out send slots under a
// mutex — so the estimator execution engine can fan one round's
// drill-down walks out over a single shared client session.
type Client struct {
	base string
	sch  *schema.Schema
	k    int
	http *http.Client
	opts ClientOptions
	// customWire records that the caller injected a site-specific
	// Request/Parse pair; the native batched POST then does not apply and
	// SearchBatch degrades to sequential single-query requests.
	customWire bool

	mu     sync.Mutex // guards nextAt
	nextAt time.Time

	// retries counts request attempts beyond each call's first — the
	// router's observability surface for shard flakiness.
	retries atomic.Uint64
}

// RetryCount returns the total number of retry attempts this client has
// made across all calls (first attempts are free; every backoff-and-
// retry adds one).
func (c *Client) RetryCount() uint64 { return c.retries.Load() }

// BudgetExhaustedError reports an HTTP 429 from the remote database: the
// server-side per-key round budget G is spent. It unwraps to
// hiddendb.ErrBudgetExhausted, so estimators treat it as the normal end
// of a round rather than a failure, and it is never retried (the budget
// only resets at the next round).
type BudgetExhaustedError struct {
	// Status is the server's status line, e.g. "429 Too Many Requests".
	Status string
}

func (e *BudgetExhaustedError) Error() string {
	return "webiface: server budget exhausted: " + e.Status
}

// Unwrap makes errors.Is(err, hiddendb.ErrBudgetExhausted) true.
func (e *BudgetExhaustedError) Unwrap() error { return hiddendb.ErrBudgetExhausted }

// Dial fetches the remote schema and returns a ready client. The client
// speaks the versioned API ("/v1/..." routes) exclusively — the
// unversioned aliases are gone on the server side too.
func Dial(base string, opts ClientOptions) (*Client, error) {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	custom := opts.Request != nil || opts.Parse != nil
	if opts.Request == nil {
		opts.Request = defaultRequest
	}
	c := &Client{base: strings.TrimRight(base, "/"), http: opts.HTTPClient, opts: opts, customWire: custom}

	resp, err := c.http.Get(c.base + "/" + httpapi.Version + "/schema")
	if err != nil {
		return nil, fmt.Errorf("webiface: schema fetch: %w", err)
	}
	defer httpapi.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webiface: schema fetch: %s", resp.Status)
	}
	var ws wireSchema
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		return nil, fmt.Errorf("webiface: schema decode: %w", err)
	}
	if len(ws.Attrs) == 0 || ws.K < 1 {
		return nil, fmt.Errorf("webiface: invalid remote schema (m=%d, k=%d)", len(ws.Attrs), ws.K)
	}
	attrs := make([]schema.Attr, len(ws.Attrs))
	for i, a := range ws.Attrs {
		attrs[i] = schema.Attr{Name: a.Name, Domain: a.Domain, Nullable: a.Nullable}
	}
	c.sch = schema.New(attrs)
	c.k = ws.K
	return c, nil
}

// K returns the remote interface's result cap.
func (c *Client) K() int { return c.k }

// Schema returns the remote schema.
func (c *Client) Schema() *schema.Schema { return c.sch }

// Search issues one conjunctive query over HTTP, honouring the rate limit
// and retrying transient failures.
func (c *Client) Search(q hiddendb.Query) (hiddendb.Result, error) {
	return c.SearchContext(context.Background(), q)
}

// SearchContext is Search with caller-controlled cancellation: the rate-
// limit wait, every retry backoff and every request attempt observe ctx.
// ClientOptions.RequestTimeout additionally bounds each attempt; an
// attempt timeout is transient (retried), ctx cancellation is terminal.
func (c *Client) SearchContext(ctx context.Context, q hiddendb.Query) (hiddendb.Result, error) {
	if err := c.waitSlot(ctx); err != nil {
		return hiddendb.Result{}, err
	}
	var lastErr error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, backoff); err != nil {
				return hiddendb.Result{}, err
			}
			backoff *= 2
		}
		res, retryable, err := c.attempt(ctx, q)
		if err == nil {
			return res, nil
		}
		if !retryable {
			return hiddendb.Result{}, err
		}
		lastErr = err
	}
	return hiddendb.Result{}, fmt.Errorf("webiface: search failed after retries: %w", lastErr)
}

// SearchBatch issues many queries as ONE batched POST — one rate-limit
// slot, one round trip, one server-side snapshot/epoch pin. The returned
// items are in query order; per-query budget errors travel inside them
// (unwrapping to hiddendb.ErrBudgetExhausted), while the error return is
// a whole-batch transport failure. Clients built around a site-specific
// wire format (custom Request/Parse) have no batch endpoint and fall back
// to sequential single-query requests.
func (c *Client) SearchBatch(qs []hiddendb.Query) ([]hiddendb.BatchItem, error) {
	return c.SearchBatchContext(context.Background(), qs)
}

// SearchBatchContext is SearchBatch with caller-controlled cancellation,
// mirroring SearchContext's retry/backoff/timeout behaviour. Note that
// retrying a failed batch re-charges the server-side budget for every
// query in it, just as retrying a single query re-charges one.
func (c *Client) SearchBatchContext(ctx context.Context, qs []hiddendb.Query) ([]hiddendb.BatchItem, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if c.customWire {
		items := make([]hiddendb.BatchItem, len(qs))
		for i, q := range qs {
			r, err := c.SearchContext(ctx, q)
			items[i] = hiddendb.BatchItem{Result: r, Err: err}
		}
		return items, nil
	}
	if err := c.waitSlot(ctx); err != nil {
		return nil, err
	}
	var lastErr error
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		items, retryable, err := c.batchAttempt(ctx, qs)
		if err == nil {
			return items, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("webiface: batch search failed after retries: %w", lastErr)
}

// batchAttempt performs one batched request/parse cycle against the
// versioned batch endpoint, with the same failure classification as
// attempt.
func (c *Client) batchAttempt(ctx context.Context, qs []hiddendb.Query) (items []hiddendb.BatchItem, retryable bool, err error) {
	actx := ctx
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	req := wireBatchRequest{Queries: make([]wireBatchQuery, len(qs))}
	for i, q := range qs {
		where := make([]string, 0, q.Len())
		for _, p := range q.Preds() {
			where = append(where, fmt.Sprintf("%d:%d", p.Attr, p.Val))
		}
		req.Queries[i] = wireBatchQuery{Where: where}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost,
		c.base+"/"+httpapi.Version+"/search", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.opts.APIKey != "" {
		hreq.Header.Set("X-API-Key", c.opts.APIKey)
	}
	if id := obs.TraceID(ctx); id != "" {
		// Forward the caller's trace ID so the receiving daemon's request
		// log and logs correlate with the originating router entry.
		hreq.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		return nil, true, err
	}
	defer httpapi.DrainClose(resp.Body)
	if c.opts.ObserveResponse != nil {
		c.opts.ObserveResponse(resp)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, false, &BudgetExhaustedError{Status: resp.Status}
	case resp.StatusCode != http.StatusOK:
		return nil, resp.StatusCode >= 500, statusError("batch search", resp)
	}
	items, err = c.readBatch(resp.Body)
	if err != nil {
		return nil, !errors.Is(err, errAnswerK), err
	}
	if len(items) != len(qs) {
		return nil, false, fmt.Errorf("webiface: batch answered %d of %d queries", len(items), len(qs))
	}
	return items, false, nil
}

// attempt performs one request/parse cycle, classifying failures as
// retryable (transient network/server trouble) or terminal.
func (c *Client) attempt(ctx context.Context, q hiddendb.Query) (res hiddendb.Result, retryable bool, err error) {
	actx := ctx
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	req, err := c.opts.Request(actx, c.base, q)
	if err != nil {
		return hiddendb.Result{}, false, err
	}
	if c.opts.APIKey != "" {
		req.Header.Set("X-API-Key", c.opts.APIKey)
	}
	if id := obs.TraceID(ctx); id != "" {
		// Forward the caller's trace ID (see batchAttempt).
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller cancelled; the per-attempt timeout alone stays
			// retryable.
			return hiddendb.Result{}, false, ctx.Err()
		}
		return hiddendb.Result{}, true, err
	}
	defer httpapi.DrainClose(resp.Body)
	if c.opts.ObserveResponse != nil {
		c.opts.ObserveResponse(resp)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return hiddendb.Result{}, false, &BudgetExhaustedError{Status: resp.Status}
	case resp.StatusCode != http.StatusOK:
		return hiddendb.Result{}, resp.StatusCode >= 500, statusError("search", resp)
	}
	if c.opts.Parse != nil {
		res, err = c.opts.Parse(resp)
	} else {
		res, err = c.readAnswer(resp.Body)
	}
	if err != nil {
		return hiddendb.Result{}, !errors.Is(err, errAnswerK), err
	}
	return res, false, nil
}

// statusError turns a non-200 response into an error, decoding the JSON
// error envelope when the server sent one (legacy plain-text bodies fall
// back to the bare status line).
func statusError(op string, resp *http.Response) error {
	if e, ok := httpapi.DecodeError(resp.Body); ok {
		return fmt.Errorf("webiface: %s: %s: %w", op, resp.Status, &e)
	}
	return fmt.Errorf("webiface: %s: %s", op, resp.Status)
}

// waitSlot claims the next rate-limited send slot and sleeps until it,
// observing ctx. Slots are handed out under the mutex, so concurrent
// callers queue fairly at MinInterval spacing.
func (c *Client) waitSlot(ctx context.Context) error {
	if c.opts.MinInterval <= 0 {
		return ctx.Err()
	}
	c.mu.Lock()
	now := time.Now()
	slot := c.nextAt
	if slot.Before(now) {
		slot = now
	}
	c.nextAt = slot.Add(c.opts.MinInterval)
	c.mu.Unlock()
	return sleepCtx(ctx, time.Until(slot))
}

// sleepCtx sleeps for d unless ctx is done first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

var _ hiddendb.Searcher = (*Client)(nil)

// defaultRequest sends the predicates as where=attr:value in q.Preds()
// order. Digits and ':' need no escaping in a query, and an unescaped
// query string is the one the Handler walks without net/url.
func defaultRequest(ctx context.Context, base string, q hiddendb.Query) (*http.Request, error) {
	u := []byte(base + "/" + httpapi.Version + "/search")
	for i, p := range q.Preds() {
		if i == 0 {
			u = append(u, "?where="...)
		} else {
			u = append(u, "&where="...)
		}
		u = strconv.AppendInt(u, int64(p.Attr), 10)
		u = append(u, ':')
		u = strconv.AppendUint(u, uint64(p.Val), 10)
	}
	return http.NewRequestWithContext(ctx, http.MethodGet, string(u), nil)
}

// NewSession starts a budgeted round against the remote database: a
// hiddendb.Session over the client, whose atomic budget accounting lets
// one session be shared by the estimator execution engine's bounded
// fan-out (several goroutines issuing one round's drill-down walks).
func (c *Client) NewSession(g int) *hiddendb.Session { return hiddendb.NewSession(c, g) }

var _ hiddendb.BatchSearcher = (*Client)(nil)
