package webiface

import (
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

// sigOf serialises a result for byte-identity comparison (the webiface
// twin of hiddendb's resultSignature).
func sigOf(r hiddendb.Result) string {
	s := fmt.Sprintf("overflow=%v;", r.Overflow)
	for _, t := range r.Tuples {
		s += fmt.Sprintf("%d:%v:%v;", t.ID, t.Vals, t.Aux)
	}
	return s
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
