package webiface

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/workload"
)

// The before/after pair for the wire fast path. legacyHandler is the
// pre-fast-path serving code shape, preserved here as the benchmark
// baseline: per-request url.Values parse, a fresh Query, an engine
// Search and a full encoding/json encode of the wireResult. The live
// handler answers the same request off the pooled parse scratch and the
// pre-encoded answer cache. TestLegacyBenchHandlerEquivalence pins the
// two to identical bytes so the benchmark compares equal work.

type legacyHandler struct {
	b hiddendb.Searcher
}

func (h *legacyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	vals := r.URL.Query()
	var preds []hiddendb.Pred
	seen := make(map[int]bool)
	for _, raw := range vals["where"] {
		attr, val, err := parsePred(raw)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		if attr < 0 || attr >= h.b.Schema().M() {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				fmt.Sprintf("unknown attribute %d", attr))
			return
		}
		if seen[attr] {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				fmt.Sprintf("duplicate predicate on attribute %d", attr))
			return
		}
		seen[attr] = true
		preds = append(preds, hiddendb.Pred{Attr: attr, Val: val})
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i].Attr < preds[j].Attr })
	res, err := h.b.Search(hiddendb.NewQuery(preds...))
	if err != nil {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, err.Error())
		return
	}
	out := wireResult{K: h.b.K(), Overflow: res.Overflow}
	for _, t := range res.Tuples {
		out.Tuples = append(out.Tuples, wireTuple{ID: t.ID, Vals: t.Vals, Aux: t.Aux})
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// discardRW is a reusable ResponseWriter for benchmarking the handler
// without net/http's per-request response machinery. It implements
// io.StringWriter like the production http.response does, so the
// handler's write path costs what it costs in a real server.
type discardRW struct {
	h http.Header
	n int
}

func newDiscardRW() *discardRW { return &discardRW{h: make(http.Header, 4)} }

func (d *discardRW) Header() http.Header { return d.h }

func (d *discardRW) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func (d *discardRW) WriteString(s string) (int, error) {
	d.n += len(s)
	return len(s), nil
}

func (d *discardRW) WriteHeader(int) {}

func benchBackend(tb testing.TB) *hiddendb.Iface {
	tb.Helper()
	data := workload.AutosLikeN(41, 8000, 10)
	env, err := workload.NewEnv(data, 7500, 42)
	if err != nil {
		tb.Fatal(err)
	}
	return hiddendb.NewIface(env.Store, 50, nil)
}

// TestLegacyBenchHandlerEquivalence keeps the benchmark honest: the
// baseline handler above and the live fast-path handler must produce
// byte-identical bodies, so the ns/op delta measures the same served
// response.
func TestLegacyBenchHandlerEquivalence(t *testing.T) {
	b := benchBackend(t)
	legacy := &legacyHandler{b: b}
	fast := NewHandler(b)
	rng := rand.New(rand.NewSource(3))
	sch := b.Schema()
	for i := 0; i < 30; i++ {
		q := randomQuery(rng, sch, sch.DomainSize)
		path := whereURL(q)
		lw := httptest.NewRecorder()
		legacy.ServeHTTP(lw, httptest.NewRequest(http.MethodGet, path, nil))
		for pass := 0; pass < 2; pass++ { // miss, then cache hit
			fw := httptest.NewRecorder()
			fast.ServeHTTP(fw, httptest.NewRequest(http.MethodGet, path, nil))
			if lw.Code != fw.Code {
				t.Fatalf("query %d pass %d: status %d vs %d", i, pass, lw.Code, fw.Code)
			}
			if !bytes.Equal(lw.Body.Bytes(), fw.Body.Bytes()) {
				t.Fatalf("query %d pass %d (%s): bodies diverged\nlegacy %s\nfast   %s",
					i, pass, path, lw.Body.Bytes(), fw.Body.Bytes())
			}
		}
	}
}

const benchHotPath = "/v1/search?where=2:1&where=5:0"

// TestHandlerSearchHotAllocs pins the fast-path allocation contract: a
// warm-cache GET allocates at most once per request beyond the response
// write (steady state is zero — pooled scratch, zero-copy key probe,
// memoized body).
func TestHandlerSearchHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated by race-detector instrumentation")
	}
	h := NewHandler(benchBackend(t))
	req := httptest.NewRequest(http.MethodGet, benchHotPath, nil)
	w := newDiscardRW()
	for i := 0; i < 4; i++ { // publish the snapshot, cache and wire bytes
		h.ServeHTTP(w, req)
	}
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeHTTP(w, req)
	})
	if allocs > 1 {
		t.Fatalf("hot-path GET costs %.1f allocs/op, budget is 1", allocs)
	}
}

// BenchmarkHandlerSearchHot measures one warm repeated GET through both
// handlers — the before/after pair for the wire fast path. Compare:
//
//	go test ./webiface/ -run xx -bench HandlerSearchHot -benchmem
func BenchmarkHandlerSearchHot(b *testing.B) {
	for _, tc := range []struct {
		name    string
		handler http.Handler
	}{
		{"legacy", &legacyHandler{b: benchBackend(b)}},
		{"fastpath", NewHandler(benchBackend(b))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, benchHotPath, nil)
			w := newDiscardRW()
			for i := 0; i < 4; i++ {
				tc.handler.ServeHTTP(w, req)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.handler.ServeHTTP(w, req)
			}
		})
	}
}
