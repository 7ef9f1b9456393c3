package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/webiface"
)

// testSchema is the shared fleet schema for the equivalence tests.
func testSchema() *schema.Schema {
	domains := []int{7, 5, 4, 6}
	attrs := make([]schema.Attr, len(domains))
	for i, d := range domains {
		dom := make([]string, d)
		for v := range dom {
			dom[v] = fmt.Sprintf("v%d", v)
		}
		attrs[i] = schema.Attr{Name: fmt.Sprintf("S%d", i+1), Domain: dom}
	}
	return schema.New(attrs)
}

// fleet is a multi-process simulation: a reference single process
// serving an N-way ShardedStore, and N shard daemons (ShardAdmin over a
// 1-way ShardedStore each) holding the identical data partitioned the
// same way the reference partitions it internally. Every mutation is
// applied to both sides, so the router over the daemons must answer
// byte-identically to the reference server.
type fleet struct {
	t   *testing.T
	k   int
	sch *schema.Schema
	rng *rand.Rand

	ref    *hiddendb.ShardedStore
	refH   *webiface.Handler
	refSrv *httptest.Server

	stores   []*hiddendb.ShardedStore
	handlers []*webiface.Handler
	admins   []*ShardAdmin
	srvs     []*httptest.Server

	nextID uint64
}

// newFleet builds the simulation; an optional wrap interposes a fault
// injector between shard i's HTTP server and its admin handler.
func newFleet(t *testing.T, shards int, seed int64, n int, wrap ...func(i int, h http.Handler) http.Handler) *fleet {
	t.Helper()
	f := &fleet{t: t, k: 25, sch: testSchema(), rng: rand.New(rand.NewSource(seed))}
	f.ref = hiddendb.NewShardedStore(f.sch, shards)
	f.refH = webiface.NewHandler(hiddendb.NewShardedIface(f.ref, f.k, nil))
	f.refSrv = httptest.NewServer(f.refH)
	t.Cleanup(f.refSrv.Close)
	for i := 0; i < shards; i++ {
		ss := hiddendb.NewShardedStore(f.sch, 1)
		h := webiface.NewHandler(hiddendb.NewShardedIface(ss, f.k, nil))
		admin := NewShardAdmin(ss, h, AdminOptions{})
		var serve http.Handler = admin
		if len(wrap) > 0 && wrap[0] != nil {
			serve = wrap[0](i, admin)
		}
		srv := httptest.NewServer(serve)
		t.Cleanup(srv.Close)
		f.stores = append(f.stores, ss)
		f.handlers = append(f.handlers, h)
		f.admins = append(f.admins, admin)
		f.srvs = append(f.srvs, srv)
	}
	f.churn(n, 0)
	return f
}

func (f *fleet) bases() []string {
	out := make([]string, len(f.srvs))
	for i, s := range f.srvs {
		out[i] = s.URL
	}
	return out
}

func (f *fleet) genTuple() *schema.Tuple {
	f.nextID++
	vals := make([]uint16, f.sch.M())
	for i := range vals {
		vals[i] = uint16(f.rng.Intn(len(f.sch.Attr(i).Domain)))
	}
	return &schema.Tuple{ID: f.nextID, Vals: vals, Aux: []float64{f.rng.Float64() * 100}}
}

// churn applies one identical mutation batch to the reference store and
// to the owning shard daemons (through their mutator quiescence locks).
func (f *fleet) churn(insertN, deleteN int) {
	f.t.Helper()
	ins := make([][]*schema.Tuple, len(f.stores))
	dels := make([][]uint64, len(f.stores))
	var refIns []*schema.Tuple
	for i := 0; i < insertN; i++ {
		tp := f.genTuple()
		s := f.ref.ShardFor(tp.ID)
		ins[s] = append(ins[s], tp)
		refIns = append(refIns, tp.Clone(tp.ID))
	}
	ids := f.ref.IDs()
	f.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if deleteN > len(ids) {
		deleteN = len(ids)
	}
	refDels := ids[:deleteN]
	for _, id := range refDels {
		s := f.ref.ShardFor(id)
		dels[s] = append(dels[s], id)
	}
	if err := f.ref.ApplyBatch(refIns, refDels); err != nil {
		f.t.Fatal(err)
	}
	for i := range f.stores {
		i := i
		err := f.admins[i].WithMutators(func() error {
			return f.stores[i].ApplyBatch(ins[i], dels[i])
		})
		if err != nil {
			f.t.Fatal(err)
		}
	}
}

// round advances both sides to a new epoch: the reference with its
// in-process AdvanceEpoch, the fleet with the router's two-phase
// handshake, and budgets reset on both (the handshake resets the
// router's own).
func (f *fleet) round(rt *Router) {
	f.t.Helper()
	f.ref.AdvanceEpoch()
	f.refH.ResetBudgets()
	if _, err := rt.Handshake(context.Background()); err != nil {
		f.t.Fatal(err)
	}
}

func dialRouter(t *testing.T, f *fleet, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	if opts.Client.RequestTimeout == 0 {
		opts.Client.RequestTimeout = 10 * time.Second
	}
	rt, err := New(f.bases(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return rt, srv
}

// fetch issues one request and returns status plus full body.
func fetch(t *testing.T, method, url, key, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// randomWhere builds a random (sometimes empty, sometimes malformed)
// predicate list as raw query-string parameters.
func randomWhere(rng *rand.Rand, sch *schema.Schema) []string {
	if rng.Intn(20) == 0 {
		// Malformed inputs must produce byte-identical 400 envelopes.
		switch rng.Intn(3) {
		case 0:
			return []string{"not-a-pred"}
		case 1:
			return []string{"99:0"}
		default:
			return []string{"0:1", "0:2"}
		}
	}
	var where []string
	for a := 0; a < sch.M(); a++ {
		if rng.Intn(2) == 0 {
			continue
		}
		where = append(where, fmt.Sprintf("%d:%d", a, rng.Intn(len(sch.Attr(a).Domain))))
	}
	return where
}

func searchURL(base string, where []string) string {
	u := base + "/v1/search"
	if len(where) > 0 {
		u += "?where=" + strings.Join(where, "&where=")
	}
	return u
}

func batchBody(queries [][]string) string {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i, where := range queries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"where":[`)
		for j, wp := range where {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q", wp)
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestRouterEquivalenceFuzz is the PR's core proof: at 1, 4 and 16
// shards, under churn with fleet epoch handshakes between rounds and
// per-key budgets in force, every GET answered by the router over real
// HTTP shard daemons is byte-identical — status and body — to the
// single-process reference serving the union of the shards.
func TestRouterEquivalenceFuzz(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := newFleet(t, shards, int64(100+shards), 1000)
			const budget = 45
			f.refH.SetPerKeyBudget(budget)
			rt, rtSrv := dialRouter(t, f, Options{PerKeyBudget: budget})
			qrng := rand.New(rand.NewSource(int64(7 * shards)))
			for round := 0; round < 3; round++ {
				if round > 0 {
					f.churn(120, 80)
				}
				f.round(rt)
				keys := []string{"alice", "bob"}
				for i := 0; i < 40; i++ {
					where := randomWhere(qrng, f.sch)
					key := keys[qrng.Intn(len(keys))]
					wantCode, wantBody := fetch(t, http.MethodGet, searchURL(f.refSrv.URL, where), key, "")
					gotCode, gotBody := fetch(t, http.MethodGet, searchURL(rtSrv.URL, where), key, "")
					if gotCode != wantCode || gotBody != wantBody {
						t.Fatalf("round %d GET where=%v key=%s diverges:\nrouter %d %q\nref    %d %q",
							round, where, key, gotCode, gotBody, wantCode, wantBody)
					}
				}
			}
			if rt.Seq() < 3 {
				t.Fatalf("fleet epoch %d after 3 handshakes, want >= 3", rt.Seq())
			}
		})
	}
}

// TestRouterSchemaAndStats: the discovery and diagnostics surface is
// served by the router itself (schema byte-identical to a shard's;
// stats reports the fleet epoch as version).
func TestRouterSchemaAndStats(t *testing.T) {
	f := newFleet(t, 4, 11, 300)
	rt, rtSrv := dialRouter(t, f, Options{})
	f.round(rt)

	wantCode, wantBody := fetch(t, http.MethodGet, f.refSrv.URL+"/v1/schema", "", "")
	gotCode, gotBody := fetch(t, http.MethodGet, rtSrv.URL+"/v1/schema", "", "")
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("schema diverges: %d %q vs %d %q", gotCode, gotBody, wantCode, wantBody)
	}

	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/stats", "", "")
	if code != http.StatusOK || !strings.Contains(body, fmt.Sprintf(`"version":%d`, rt.Seq())) {
		t.Fatalf("stats: %d %q (want version %d)", code, body, rt.Seq())
	}

	code, body = fetch(t, http.MethodGet, rtSrv.URL+"/v1/healthz", "", "")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz: %d %q", code, body)
	}

	code, body = fetch(t, http.MethodGet, rtSrv.URL+"/v1/metrics", "", "")
	if code != http.StatusOK || !strings.Contains(body, "dynagg_router_epoch_seq") {
		t.Fatalf("metrics: %d %q", code, body)
	}

	code, body = fetch(t, http.MethodGet, rtSrv.URL+"/v1/nope", "", "")
	if code != http.StatusNotFound || !strings.Contains(body, `"not_found"`) {
		t.Fatalf("unknown route: %d %q", code, body)
	}
}

// TestRouterServesUnavailableBeforeHandshake: with no fleet epoch
// pinned yet, searches fail fast with the unavailable envelope rather
// than serving an undefined mix of shard states.
func TestRouterServesUnavailableBeforeHandshake(t *testing.T) {
	f := newFleet(t, 2, 5, 200)
	_, rtSrv := dialRouter(t, f, Options{})
	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"unavailable"`) {
		t.Fatalf("pre-handshake search: %d %q, want 503 unavailable envelope", code, body)
	}
}

// TestSearchPostRefused: a search is one GET. A POST /v1/search with a
// well-formed batch body answers 405 with the bad_request envelope and
// Allow: GET, from a serving handler over an Iface and from the router
// alike, and charges nothing: under a per-key budget of 1 the key's next
// GET still answers 200, and only the GET after it 429.
func TestSearchPostRefused(t *testing.T) {
	st := hiddendb.NewStore(testSchema())
	for id := uint64(1); id <= 200; id++ {
		vals := []uint16{uint16(id % 7), uint16(id % 5), uint16(id % 4), uint16(id % 6)}
		if err := st.Insert(&schema.Tuple{ID: id, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
	h := webiface.NewHandler(hiddendb.NewIface(st, 25, nil))
	h.SetPerKeyBudget(1)
	single := httptest.NewServer(h)
	t.Cleanup(single.Close)
	f := newFleet(t, 2, 415, 200)
	rt, routed := dialRouter(t, f, Options{PerKeyBudget: 1})
	f.round(rt)

	body := batchBody([][]string{{"0:1"}, {}})
	for _, srv := range []struct{ name, base string }{{"serve", single.URL}, {"router", routed.URL}} {
		req, err := http.NewRequest(http.MethodPost, srv.base+"/v1/search", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := httpapi.DecodeError(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || !ok || e.Code != httpapi.CodeBadRequest {
			t.Fatalf("%s: POST /v1/search answered %d %+v, want 405 bad_request envelope", srv.name, resp.StatusCode, e)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("%s: Allow %q, want GET", srv.name, allow)
		}
		if code, got := fetch(t, http.MethodGet, srv.base+"/v1/search?where=0:1", "alice", ""); code != http.StatusOK {
			t.Fatalf("%s: GET after the refused POST: %d %q, want 200 (the POST charged the budget)", srv.name, code, got)
		}
		if code, got := fetch(t, http.MethodGet, srv.base+"/v1/search?where=0:1", "alice", ""); code != http.StatusTooManyRequests {
			t.Fatalf("%s: second GET under a budget of 1: %d %q, want 429", srv.name, code, got)
		}
	}
}

// TestRouterConcurrentServingAndHandshakes drives parallel searches
// while churn and handshakes flip the fleet epoch under them — the
// race-detector proof (make race) that the epoch pin, the budget table
// and the per-connection state are sound.
func TestRouterConcurrentServingAndHandshakes(t *testing.T) {
	f := newFleet(t, 4, 21, 400)
	rt, _ := dialRouter(t, f, Options{})
	f.round(rt)

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.churn(30, 20)
			f.round(rt)
		}
	}()

	const workers = 4
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 60; i++ {
				where := randomWhere(rng, f.sch)
				req := httptest.NewRequest(http.MethodGet, searchURL("http://router", where), nil)
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, req)
				if c := rec.Code; c != http.StatusOK && c != http.StatusBadRequest {
					t.Errorf("worker %d: unexpected status %d: %s", w, c, rec.Body.String())
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	close(stop)
	<-churnDone
}
