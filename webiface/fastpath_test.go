package webiface

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/workload"
)

// The wire fast path — pooled parse scratch, cache-key probe, memoized
// pre-encoded bodies, singleflight dedup — must be invisible on the
// wire: every response byte-identical to what the pre-fast-path handler
// (parse → Search → encoding/json over wireResult) would have produced,
// across cache hit/miss, winner/waiter and shard counts, and across
// mutation between identical queries. These tests pin that.

// wireResultOf builds the wire struct the pre-fast-path handler encoded
// with encoding/json: the reference the fast path's bytes are pinned to.
func (h *Handler) wireResultOf(res hiddendb.Result) wireResult {
	out := wireResult{K: h.b.K(), Overflow: res.Overflow}
	for _, t := range res.Tuples {
		out.Tuples = append(out.Tuples, wireTuple{ID: t.ID, Vals: t.Vals, Aux: t.Aux})
	}
	return out
}

// legacyBody is the oracle: what the handler answered before the fast
// path existed — json.Encoder over wireResultOf (note the trailing
// newline Encode appends). It runs the query on a FRESH interface over
// the same store, so no cache state can leak into the expectation.
func legacyBody(t *testing.T, h *Handler, fresh hiddendb.Searcher, q hiddendb.Query) []byte {
	t.Helper()
	res, err := fresh.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(h.wireResultOf(res))
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// whereURL renders q as a canonical GET path (zero-alloc parse route).
func whereURL(q hiddendb.Query) string {
	var sb strings.Builder
	sb.WriteString("/v1/search")
	sep := "?"
	for _, p := range q.Preds() {
		fmt.Fprintf(&sb, "%swhere=%d:%d", sep, p.Attr, p.Val)
		sep = "&"
	}
	return sb.String()
}

// whereURLEscaped renders q with percent-escaped ':' so the parser is
// forced through the net/url fallback route.
func whereURLEscaped(q hiddendb.Query) string {
	var sb strings.Builder
	sb.WriteString("/v1/search")
	sep := "?"
	for _, p := range q.Preds() {
		fmt.Fprintf(&sb, "%swhere=%s", sep, url.QueryEscape(fmt.Sprintf("%d:%d", p.Attr, p.Val)))
		sep = "&"
	}
	return sb.String()
}

func getBody(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func randomQuery(rng *rand.Rand, sch interface{ M() int }, domain func(int) int) hiddendb.Query {
	var preds []hiddendb.Pred
	for a := 0; a < sch.M(); a++ {
		if rng.Float64() < 0.25 {
			preds = append(preds, hiddendb.Pred{Attr: a, Val: uint16(rng.Intn(domain(a)))})
		}
		if len(preds) == 3 {
			break
		}
	}
	return hiddendb.NewQuery(preds...)
}

// fastPathConfig is one serving stack shape the byte-identity sweep
// covers: the plain interface plus sharded stores at two shard counts.
type fastPathConfig struct {
	name    string
	backend Backend
	fresh   func() hiddendb.Searcher // fresh same-store interface for oracle answers
	churn   func() error
}

func fastPathConfigs(t *testing.T, k int) []fastPathConfig {
	t.Helper()
	var cfgs []fastPathConfig

	data := workload.AutosLikeN(61, 4000, 8)
	env, err := workload.NewEnv(data, 3500, 62)
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, fastPathConfig{
		name:    "unsharded",
		backend: hiddendb.NewIface(env.Store, k, nil),
		fresh:   func() hiddendb.Searcher { return hiddendb.NewIface(env.Store, k, nil) },
		churn: func() error {
			if err := env.InsertFromPool(40); err != nil {
				return err
			}
			return env.DeleteRandom(20)
		},
	})

	// The subtest names keep the gather widths these configurations once
	// also varied, so their test IDs stay stable; every sharded query
	// now folds its shards sequentially.
	for _, sc := range []struct {
		shards int
		name   string
	}{{4, "sharded_4x_gather1"}, {16, "sharded_16x_gather4"}} {
		sc := sc
		sdata := workload.AutosLikeN(71+int64(sc.shards), 4000, 8)
		senv, err := workload.NewShardedEnv(sdata, 3500, 72, sc.shards)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, fastPathConfig{
			name:    sc.name,
			backend: hiddendb.NewShardedIface(senv.Store, k, nil),
			fresh: func() hiddendb.Searcher {
				return hiddendb.NewShardedIface(senv.Store, k, nil)
			},
			churn: func() error {
				if err := senv.InsertFromPool(40); err != nil {
					return err
				}
				if err := senv.DeleteRandom(20); err != nil {
					return err
				}
				senv.Store.AdvanceEpoch()
				return nil
			},
		})
	}
	return cfgs
}

// TestFastPathByteIdentityGET sweeps random queries across serving
// configurations and asserts every GET body — first miss, repeat hit,
// percent-escaped parse fallback — is byte-identical to the legacy
// encoding, including across churned versions.
func TestFastPathByteIdentityGET(t *testing.T) {
	const k = 40
	for _, cfg := range fastPathConfigs(t, k) {
		t.Run(cfg.name, func(t *testing.T) {
			h := NewHandler(cfg.backend)
			srv := httptest.NewServer(h)
			defer srv.Close()
			rng := rand.New(rand.NewSource(7))
			sch := cfg.backend.Schema()
			for round := 0; round < 3; round++ {
				for i := 0; i < 25; i++ {
					q := randomQuery(rng, sch, sch.DomainSize)
					want := legacyBody(t, h, cfg.fresh(), q)
					for pass, path := range []string{whereURL(q), whereURL(q), whereURLEscaped(q)} {
						code, got := getBody(t, srv, path)
						if code != http.StatusOK {
							t.Fatalf("round %d query %d pass %d: status %d", round, i, pass, code)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("round %d query %d pass %d (%s): body diverged\ngot  %s\nwant %s",
								round, i, pass, path, got, want)
						}
					}
				}
				if err := cfg.churn(); err != nil {
					t.Fatal(err)
				}
			}
			st := cfg.backend.CacheStats()
			if st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("sweep exercised no cache hits or no misses: %+v", st)
			}
		})
	}
}

// TestFastPathByteIdentityBatch pins the batched POST splice path: the
// hand-assembled response must match encoding/json over the equivalent
// wireBatchResponse, with cached and uncached items mixed in one body.
func TestFastPathByteIdentityBatch(t *testing.T) {
	const k = 40
	for _, cfg := range fastPathConfigs(t, k) {
		t.Run(cfg.name, func(t *testing.T) {
			h := NewHandler(cfg.backend)
			srv := httptest.NewServer(h)
			defer srv.Close()
			rng := rand.New(rand.NewSource(9))
			sch := cfg.backend.Schema()
			for round := 0; round < 3; round++ {
				qs := make([]hiddendb.Query, 6)
				for i := range qs {
					qs[i] = randomQuery(rng, sch, sch.DomainSize)
				}
				qs[3] = qs[1] // duplicate inside one batch

				// Warm the cache with one of the batch members so the body
				// mixes pre-encoded hits with fresh misses.
				if _, body := getBody(t, srv, whereURL(qs[0])); len(body) == 0 {
					t.Fatal("warm query returned empty body")
				}

				var req wireBatchRequest
				for _, q := range qs {
					var where []string
					for _, p := range q.Preds() {
						where = append(where, fmt.Sprintf("%d:%d", p.Attr, p.Val))
					}
					req.Queries = append(req.Queries, wireBatchQuery{Where: where})
				}
				reqRaw, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}

				want := wireBatchResponse{K: k, Results: make([]wireBatchItem, 0, len(qs))}
				fresh := cfg.fresh()
				for _, q := range qs {
					res, err := fresh.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					wr := h.wireResultOf(res)
					want.Results = append(want.Results, wireBatchItem{Result: &wr})
				}
				wantRaw, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				wantRaw = append(wantRaw, '\n')

				resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(reqRaw))
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, got)
				}
				if !bytes.Equal(got, wantRaw) {
					t.Fatalf("round %d: batch body diverged\ngot  %s\nwant %s", round, got, wantRaw)
				}
				if err := cfg.churn(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFastPathNeverServesStale is the staleness fuzz (randomized op
// sequence): interleave queries with inserts, deletes and epoch
// advances, and after EVERY query byte-compare the served body against a
// fresh interface over the same store. A pre-encoded body surviving a
// version change would diverge here immediately.
func TestFastPathNeverServesStale(t *testing.T) {
	const k = 30
	for _, cfg := range fastPathConfigs(t, k) {
		t.Run(cfg.name, func(t *testing.T) {
			h := NewHandler(cfg.backend)
			srv := httptest.NewServer(h)
			defer srv.Close()
			rng := rand.New(rand.NewSource(13))
			sch := cfg.backend.Schema()

			// A small recurring query set maximizes repeat-after-mutation
			// collisions — exactly the pattern that would expose a cache
			// entry outliving its version.
			universe := make([]hiddendb.Query, 8)
			for i := range universe {
				universe[i] = randomQuery(rng, sch, sch.DomainSize)
			}

			for step := 0; step < 200; step++ {
				if rng.Float64() < 0.3 {
					if err := cfg.churn(); err != nil {
						t.Fatal(err)
					}
				}
				q := universe[rng.Intn(len(universe))]
				want := legacyBody(t, h, cfg.fresh(), q)
				code, got := getBody(t, srv, whereURL(q))
				if code != http.StatusOK {
					t.Fatalf("step %d: status %d", step, code)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: stale or wrong body for %s\ngot  %s\nwant %s",
						step, whereURL(q), got, want)
				}
			}
		})
	}
}

// TestFastPathSingleflightConcurrentChurn is the race job's target: 32
// clients hammer a handful of hot keys — the singleflight path — while a
// churn goroutine mutates the store and advances versions underneath
// them. Every response must be a well-formed 200; under -race this also
// proves the cache swap, in-flight table and Wire memoization are clean.
func TestFastPathSingleflightConcurrentChurn(t *testing.T) {
	const k = 30
	for _, cfg := range fastPathConfigs(t, k) {
		t.Run(cfg.name, func(t *testing.T) {
			h := NewHandler(cfg.backend)
			srv := httptest.NewServer(h)
			defer srv.Close()
			rng := rand.New(rand.NewSource(17))
			sch := cfg.backend.Schema()
			hot := make([]string, 4)
			for i := range hot {
				hot[i] = whereURL(randomQuery(rng, sch, sch.DomainSize))
			}

			stop := make(chan struct{})
			var churnWG sync.WaitGroup
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				for {
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
					if err := cfg.churn(); err != nil {
						t.Error(err)
						return
					}
				}
			}()

			const clients = 32
			const perClient = 30
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < perClient; i++ {
						path := hot[(c+i)%len(hot)]
						resp, err := http.Get(srv.URL + path)
						if err != nil {
							errs <- err
							return
						}
						raw, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil {
							errs <- err
							return
						}
						if resp.StatusCode != http.StatusOK {
							errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, raw)
							return
						}
						var wr wireResult
						if err := json.Unmarshal(raw, &wr); err != nil {
							errs <- fmt.Errorf("client %d: bad body %q: %v", c, raw, err)
							return
						}
						if wr.K != k {
							errs <- fmt.Errorf("client %d: k=%d want %d", c, wr.K, k)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(stop)
			churnWG.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestDecodeBatchScratchReuseNoLeak pins the pooled-decode contract: a
// batch query object that omits "where" (a valid match-all query) must
// decode to an empty predicate list even when the scratch's previous
// request left populated wireBatchQuery elements in the backing array —
// encoding/json merges into reused elements, so without the pre-decode
// zeroing a later tenant would inherit the earlier tenant's predicates.
func TestDecodeBatchScratchReuseNoLeak(t *testing.T) {
	sc := new(reqScratch)
	if err := decodeBatch([]byte(`{"queries":[{"where":["0:1","2:3"]},{"where":["1:1"]}]}`), sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.req.Queries) != 2 || len(sc.req.Queries[0].Where) != 2 {
		t.Fatalf("seed decode wrong: %+v", sc.req.Queries)
	}
	// Same scratch, new request: one query with "where" absent, one with
	// it explicitly empty. Both must come out with zero predicates.
	if err := decodeBatch([]byte(`{"queries":[{},{"where":[]}]}`), sc); err != nil {
		t.Fatal(err)
	}
	if len(sc.req.Queries) != 2 {
		t.Fatalf("got %d queries, want 2", len(sc.req.Queries))
	}
	for i, q := range sc.req.Queries {
		if len(q.Where) != 0 {
			t.Fatalf("query %d inherited stale predicates from the pooled scratch: %q", i, q.Where)
		}
	}
}

// FuzzDecodeBatch: a batch body decoded into a scratch that already
// decoded another body holds what a fresh scratch holds, so no pooled
// request inherits an earlier one's queries or predicates. A reused
// empty Queries slice and a fresh nil one both mean "no queries", so
// the two are compared by length and elements.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, first, second []byte) {
		reused := new(reqScratch)
		_ = decodeBatch(first, reused)
		err := decodeBatch(second, reused)
		fresh := new(reqScratch)
		refErr := decodeBatch(second, fresh)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("reused scratch error %v, fresh scratch error %v", err, refErr)
		}
		if err != nil {
			return
		}
		got, want := reused.req.Queries, fresh.req.Queries
		if len(got) != len(want) {
			t.Fatalf("reused scratch decoded %d queries, fresh %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].Where, want[i].Where) {
				t.Fatalf("query %d: reused scratch where %q, fresh %q", i, got[i].Where, want[i].Where)
			}
		}
	})
}

// TestFastPathBatchMatchAllAfterPredicates is the end-to-end form of the
// scratch-reuse check: alternate a predicate-heavy batch with a bare
// {"queries":[{}]} batch against one server and assert the match-all
// answer never shrinks to the previous request's filtered result.
func TestFastPathBatchMatchAllAfterPredicates(t *testing.T) {
	data := workload.AutosLikeN(101, 3000, 8)
	env, err := workload.NewEnv(data, 2500, 102)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 40, nil)
	h := NewHandler(iface)
	srv := httptest.NewServer(h)
	defer srv.Close()

	fresh := hiddendb.NewIface(env.Store, 40, nil)
	res, err := fresh.Search(hiddendb.NewQuery())
	if err != nil {
		t.Fatal(err)
	}
	wr := h.wireResultOf(res)
	want := wireBatchResponse{K: 40, Results: []wireBatchItem{{Result: &wr}}}
	wantRaw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw = append(wantRaw, '\n')

	for i := 0; i < 20; i++ {
		resp, err := http.Post(srv.URL+"/v1/search", "application/json",
			strings.NewReader(`{"queries":[{"where":["0:1","1:1"]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		resp, err = http.Post(srv.URL+"/v1/search", "application/json",
			strings.NewReader(`{"queries":[{}]}`))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Fatalf("iteration %d: match-all batch inherited prior request's predicates\ngot  %s\nwant %s",
				i, got, wantRaw)
		}
	}
}

// TestParseSearchParamsKeyMatchesURLValues: the zero-alloc query-string
// walk must pick the same key= value url.Values.Get would — first
// occurrence wins even when empty — so budget accounting cannot differ
// by parse route for the same request.
func TestParseSearchParamsKeyMatchesURLValues(t *testing.T) {
	data := workload.AutosLikeN(111, 500, 8)
	env, err := workload.NewEnv(data, 400, 112)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(hiddendb.NewIface(env.Store, 10, nil))

	for _, raw := range []string{
		"key=&key=X",
		"key=X&key=",
		"key=X&key=Y",
		"key=abc",
		"where=0:1&key=tenant",
		"key",
		"",
	} {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := vals.Get("key")
		sc := new(reqScratch)
		r := httptest.NewRequest(http.MethodGet, "/v1/search?"+raw, nil)
		got, err := h.parseSearchParams(r, sc)
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if got != want {
			t.Fatalf("%q: fast path key %q, url.Values.Get %q", raw, got, want)
		}
	}
}

// TestFastPathSingleflightWaitersMatchWinner releases a burst of
// concurrent identical first-queries at a fresh version and checks every
// response body is literally identical — winner and waiters serve the
// same memoized bytes — and that the burst collapsed into fewer engine
// executions than requests.
func TestFastPathSingleflightWaitersMatchWinner(t *testing.T) {
	data := workload.AutosLikeN(91, 6000, 8)
	env, err := workload.NewEnv(data, 5500, 92)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 50, nil)
	h := NewHandler(iface)
	srv := httptest.NewServer(h)
	defer srv.Close()

	path := "/v1/search?where=2:1" // broad single-pred query: a slow-ish intersection
	const burst = 32
	start := make(chan struct{})
	bodies := make([][]byte, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d diverged from winner:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	st := iface.CacheStats()
	if st.Misses+st.Collapsed+st.Hits < burst {
		t.Fatalf("counters lost queries: %+v over %d requests", st, burst)
	}
	if st.Misses == burst {
		t.Fatalf("no dedup at all across a same-instant burst: %+v", st)
	}
}
