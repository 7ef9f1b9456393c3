package webiface

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/workload"
)

// TestBatchEndpointMatchesSequential: a batched POST /v1/search must
// return, per query, byte-identical results to individual GETs — the
// wire-level half of the batch path's equivalence guarantee.
func TestBatchEndpointMatchesSequential(t *testing.T) {
	_, srv := newServer(t, 31, 2000, 25)
	c, err := Dial(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var qs []hiddendb.Query
	qs = append(qs, hiddendb.NewQuery())
	for v := uint16(0); v < 6; v++ {
		qs = append(qs, hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: v}))
		qs = append(qs, hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: v}, hiddendb.Pred{Attr: 1, Val: v % 3}))
	}
	items, err := c.SearchBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(qs) {
		t.Fatalf("batch returned %d items for %d queries", len(items), len(qs))
	}
	for i, q := range qs {
		want, err := c.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Err != nil {
			t.Fatalf("query %d: batch item error %v", i, items[i].Err)
		}
		if sigOf(items[i].Result) != sigOf(want) {
			t.Fatalf("query %d: batch result diverges from sequential\n got %s\nwant %s",
				i, sigOf(items[i].Result), sigOf(want))
		}
	}
}

// sigOf serialises a result for byte-identity comparison (the webiface
// twin of hiddendb's resultSignature).
func sigOf(r hiddendb.Result) string {
	s := fmt.Sprintf("overflow=%v;", r.Overflow)
	for _, t := range r.Tuples {
		s += fmt.Sprintf("%d:%v:%v;", t.ID, t.Vals, t.Aux)
	}
	return s
}

// TestBatchBudgetSemantics: the server charges batch queries one by one
// in order; queries past the per-key budget come back as per-item
// budget_exhausted errors (not a whole-batch 429), and the client maps
// them to errors unwrapping to hiddendb.ErrBudgetExhausted.
func TestBatchBudgetSemantics(t *testing.T) {
	env, _ := newServer(t, 32, 1500, 20)
	iface := hiddendb.NewIface(env.Store, 20, nil)
	h := NewHandler(iface)
	h.SetPerKeyBudget(3)
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := Dial(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]hiddendb.Query, 5)
	for i := range qs {
		qs[i] = hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: uint16(i)})
	}
	items, err := c.SearchBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if i < 3 {
			if it.Err != nil {
				t.Fatalf("query %d within budget failed: %v", i, it.Err)
			}
			continue
		}
		if it.Err == nil {
			t.Fatalf("query %d exceeded budget but succeeded", i)
		}
		if !errors.Is(it.Err, hiddendb.ErrBudgetExhausted) {
			t.Fatalf("query %d: error %v does not unwrap to ErrBudgetExhausted", i, it.Err)
		}
	}
}

// TestBatchRejectsMalformedWholesale: one malformed query rejects the
// whole batch with a 400 envelope BEFORE any budget is charged — batch
// requests must not be able to burn budget on garbage.
func TestBatchRejectsMalformedWholesale(t *testing.T) {
	env, _ := newServer(t, 33, 800, 10)
	iface := hiddendb.NewIface(env.Store, 10, nil)
	h := NewHandler(iface)
	h.SetPerKeyBudget(5)
	srv := httptest.NewServer(h)
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{"queries": []map[string]any{
		{"where": []string{"0:0"}},
		{"where": []string{"notanattr"}},
	}})
	resp, err := http.Post(srv.URL+"/"+httpapi.Version+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch: status %d, want 400", resp.StatusCode)
	}
	if e, ok := httpapi.DecodeError(resp.Body); !ok || e.Code != httpapi.CodeBadRequest {
		t.Fatalf("malformed batch: envelope %+v ok=%v", e, ok)
	}

	// The failed batch must not have consumed budget: 5 singles still fit.
	c, err := Dial(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Search(hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: uint16(i)})); err != nil {
			t.Fatalf("budget was burned by a rejected batch: %v", err)
		}
	}
}

// TestV1RoutesAndAliases: every serving route answers under /v1, the
// removed legacy unversioned aliases answer 404 with the shared
// envelope, healthz reports the API version, and unknown paths yield
// the shared 404 envelope.
func TestV1RoutesAndAliases(t *testing.T) {
	_, srv := newServer(t, 34, 500, 10)
	for _, path := range []string{"/v1/schema", "/v1/search", "/v1/stats", "/v1/healthz", "/v1/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	// The deprecated unversioned aliases are gone: 404 + envelope, so a
	// stale client fails loudly rather than silently diverging.
	for _, path := range []string{"/schema", "/search", "/stats", "/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if e, ok := httpapi.DecodeError(resp.Body); !ok || e.Code != httpapi.CodeNotFound {
			t.Errorf("GET %s: envelope %+v ok=%v", path, e, ok)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["api_version"] != httpapi.Version {
		t.Errorf("healthz api_version = %q, want %q", hz["api_version"], httpapi.Version)
	}

	resp, err = http.Get(srv.URL + "/v1/nosuchroute")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d", resp.StatusCode)
	}
	if e, ok := httpapi.DecodeError(resp.Body); !ok || e.Code != httpapi.CodeNotFound {
		t.Fatalf("unknown route envelope: %+v ok=%v", e, ok)
	}
}

// TestErrorEnvelopeOnBadQuery: a malformed single query returns the
// shared JSON error envelope, and the client surfaces its code.
func TestErrorEnvelopeOnBadQuery(t *testing.T) {
	_, srv := newServer(t, 35, 300, 10)
	resp, err := http.Get(srv.URL + "/v1/search?where=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	e, ok := httpapi.DecodeError(resp.Body)
	if !ok {
		t.Fatal("400 body is not the error envelope")
	}
	if e.Code != httpapi.CodeBadRequest || e.Message == "" {
		t.Fatalf("envelope %+v", e)
	}
}

// TestHandlerShardedBackend: the handler serves a ShardedIface through
// the same wire format, with answers byte-identical to an unsharded
// Iface over the same data.
func TestHandlerShardedBackend(t *testing.T) {
	data := workload.AutosLikeN(36, 3000, 8)
	env, err := workload.NewEnv(data, 2500, 37)
	if err != nil {
		t.Fatal(err)
	}
	senv, err := workload.NewShardedEnv(data, 2500, 37, 4)
	if err != nil {
		t.Fatal(err)
	}
	const k = 50
	flat := hiddendb.NewIface(env.Store, k, nil)
	sharded := hiddendb.NewShardedIface(senv.Store, k, nil)

	flatSrv := httptest.NewServer(NewHandler(flat))
	defer flatSrv.Close()
	shardSrv := httptest.NewServer(NewHandler(sharded))
	defer shardSrv.Close()

	fc, err := Dial(flatSrv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Dial(shardSrv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint16(0); v < 8; v++ {
		q := hiddendb.NewQuery(hiddendb.Pred{Attr: 1, Val: v})
		want, err := fc.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if sigOf(got) != sigOf(want) {
			t.Fatalf("val %d: sharded serving diverges\n got %s\nwant %s", v, sigOf(got), sigOf(want))
		}
	}
}

// TestClientSessionBatchBudget: a client session's SearchBatch claims its
// client-side budget per query; queries past the budget come back as
// items carrying ErrBudgetExhausted without touching the server.
func TestClientSessionBatchBudget(t *testing.T) {
	_, srv := newServer(t, 38, 800, 10)
	c, err := Dial(srv.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession(2)
	qs := make([]hiddendb.Query, 4)
	for i := range qs {
		qs[i] = hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: uint16(i)})
	}
	items, err := sess.SearchBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if i < 2 && it.Err != nil {
			t.Fatalf("query %d within budget failed: %v", i, it.Err)
		}
		if i >= 2 && !errors.Is(it.Err, hiddendb.ErrBudgetExhausted) {
			t.Fatalf("query %d: %v, want ErrBudgetExhausted", i, it.Err)
		}
	}
	// Denied claims do not count against Used.
	if used := sess.Used(); used != 2 {
		t.Fatalf("session used %d, want 2", used)
	}
}
