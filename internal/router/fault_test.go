package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/httpapi"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/webiface"
)

// faultInjector sits between a shard's HTTP server and its admin
// handler, injecting the failure modes the router must survive.
type faultInjector struct {
	next http.Handler // swappable under mu: a restart behind the same address

	mu             sync.Mutex
	failNextSearch int           // 500 this many /v1/search requests, then recover
	alwaysFail     bool          // 500 every /v1/search
	delay          time.Duration // sleep before answering /v1/search
	failPublish    bool          // 500 every /v1/shard/publish
}

func (fi *faultInjector) set(f func(*faultInjector)) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	f(fi)
}

func (fi *faultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fi.mu.Lock()
	next := fi.next
	fail := false
	var delay time.Duration
	switch r.URL.Path {
	case "/v1/search":
		fail = fi.alwaysFail
		if !fail && fi.failNextSearch > 0 {
			fi.failNextSearch--
			fail = true
		}
		delay = fi.delay
	case "/v1/shard/publish":
		if fi.failPublish {
			// Fail the publish but let the coordinator's abort through —
			// the interesting rollback case is a shard that is reachable
			// yet cannot land the new epoch.
			b, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(b))
			fail = !strings.Contains(string(b), `"abort"`)
		}
	}
	fi.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal, "injected fault")
		return
	}
	next.ServeHTTP(w, r)
}

// TestRouterRetriesTransientShardFailures: a shard that 500s twice and
// recovers costs retries, not the answer — the response is still
// byte-identical to the reference.
func TestRouterRetriesTransientShardFailures(t *testing.T) {
	injectors := make(map[int]*faultInjector)
	f := newFleet(t, 2, 31, 300, func(i int, h http.Handler) http.Handler {
		fi := &faultInjector{next: h}
		injectors[i] = fi
		return fi
	})
	rt, rtSrv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 2, RequestTimeout: 5 * time.Second}})
	f.round(rt)

	injectors[0].set(func(fi *faultInjector) { fi.failNextSearch = 2 })
	wantCode, wantBody := fetch(t, http.MethodGet, f.refSrv.URL+"/v1/search?where=0:1", "", "")
	gotCode, gotBody := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("answer after transient faults diverges: %d %q vs %d %q", gotCode, gotBody, wantCode, wantBody)
	}
	if rt.RetryCount() == 0 {
		t.Fatal("transient 500s must show up in the retry counter")
	}
}

// TestRouterFailsFastOnDeadShard: a shard that keeps failing exhausts
// the bounded retries and the query fails fast with the unavailable
// envelope — no partial answer, no hang.
func TestRouterFailsFastOnDeadShard(t *testing.T) {
	injectors := make(map[int]*faultInjector)
	f := newFleet(t, 2, 32, 300, func(i int, h http.Handler) http.Handler {
		fi := &faultInjector{next: h}
		injectors[i] = fi
		return fi
	})
	rt, rtSrv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 1, RequestTimeout: 2 * time.Second}})
	f.round(rt)

	injectors[1].set(func(fi *faultInjector) { fi.alwaysFail = true })
	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"unavailable"`) {
		t.Fatalf("dead shard: %d %q, want 503 unavailable envelope", code, body)
	}
	if _, mb := fetch(t, http.MethodGet, rtSrv.URL+"/v1/metrics", "", ""); !strings.Contains(mb, "dynagg_router_failures_total 1") {
		t.Fatalf("failure not counted in metrics:\n%s", mb)
	}

	// Recovery is symmetric: the injector heals, the next query answers.
	injectors[1].set(func(fi *faultInjector) { fi.alwaysFail = false })
	wantCode, wantBody := fetch(t, http.MethodGet, f.refSrv.URL+"/v1/search?where=0:1", "", "")
	gotCode, gotBody := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("post-recovery answer diverges: %d %q vs %d %q", gotCode, gotBody, wantCode, wantBody)
	}
}

// TestRouterRefusesShardUnderOtherK: a shard daemon restarted behind
// the same address with another -k passes the next handshake, which
// checks epochs, not k. Its shorter partials must not merge into a 200:
// the shard client refuses every answer under another k than it dialed,
// without retrying, and the router answers with the unavailable
// envelope naming both values.
func TestRouterRefusesShardUnderOtherK(t *testing.T) {
	injectors := make(map[int]*faultInjector)
	f := newFleet(t, 2, 40, 300, func(i int, h http.Handler) http.Handler {
		fi := &faultInjector{next: h}
		injectors[i] = fi
		return fi
	})
	rt, rtSrv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 2, RequestTimeout: 2 * time.Second}})
	f.round(rt)

	restarted := NewShardAdmin(f.stores[1], webiface.NewHandler(hiddendb.NewShardedIface(f.stores[1], 3, nil)), AdminOptions{})
	injectors[1].set(func(fi *faultInjector) { fi.next = restarted })
	f.round(rt)

	const named = "answered k=3, dialed k=25"
	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"unavailable"`) || !strings.Contains(body, named) {
		t.Fatalf("GET with a shard under k=3: %d %q, want 503 unavailable envelope naming %q", code, body, named)
	}
	if n := rt.RetryCount(); n != 0 {
		t.Fatalf("an answer under another k was retried %d times", n)
	}
}

// TestRouterTimesOutSlowShard: a shard slower than the per-attempt
// timeout is retried, then the query fails fast.
func TestRouterTimesOutSlowShard(t *testing.T) {
	injectors := make(map[int]*faultInjector)
	f := newFleet(t, 2, 33, 200, func(i int, h http.Handler) http.Handler {
		fi := &faultInjector{next: h}
		injectors[i] = fi
		return fi
	})
	rt, rtSrv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 1, RequestTimeout: 100 * time.Millisecond}})
	f.round(rt)

	injectors[0].set(func(fi *faultInjector) { fi.delay = 400 * time.Millisecond })
	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"unavailable"`) {
		t.Fatalf("slow shard: %d %q, want 503 unavailable envelope", code, body)
	}
}

// TestShardAdminHandshakeRejections pins the admin wire's conflict
// semantics: double freeze, stale publish, publish with nothing
// pending, and the zero-seq guard.
func TestShardAdminHandshakeRejections(t *testing.T) {
	f := newFleet(t, 1, 36, 100)
	base := f.srvs[0].URL

	code, body := fetch(t, http.MethodGet, base+"/v1/shard/epoch", "", "")
	if code != http.StatusOK || !strings.Contains(body, `"frozen":false`) {
		t.Fatalf("epoch probe: %d %q", code, body)
	}

	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/freeze", "", ""); code != http.StatusOK {
		t.Fatalf("freeze: %d %q", code, body)
	}
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/freeze", "", ""); code != http.StatusConflict || !strings.Contains(body, `"conflict"`) {
		t.Fatalf("double freeze: %d %q, want 409 conflict envelope", code, body)
	}
	// Stale seq: the lazily published first epoch is seq 1, so 1 cannot
	// advance it. The pending set survives for the coordinator's abort.
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/publish", "", `{"seq":1}`); code != http.StatusConflict || !strings.Contains(body, `"conflict"`) {
		t.Fatalf("stale publish: %d %q, want 409 conflict envelope", code, body)
	}
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/publish", "", `{"seq":0}`); code != http.StatusBadRequest {
		t.Fatalf("zero-seq publish: %d %q, want 400", code, body)
	}
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/publish", "", `{"seq":0,"abort":true}`); code != http.StatusOK {
		t.Fatalf("abort: %d %q", code, body)
	}
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/publish", "", `{"seq":7}`); code != http.StatusConflict || !strings.Contains(body, "no pending") {
		t.Fatalf("publish with nothing pending: %d %q, want 409", code, body)
	}
	// A clean freeze→publish still works after all the rejections.
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/freeze", "", ""); code != http.StatusOK {
		t.Fatalf("re-freeze: %d %q", code, body)
	}
	if code, body = fetch(t, http.MethodPost, base+"/v1/shard/publish", "", `{"seq":7}`); code != http.StatusOK || !strings.Contains(body, `"seq":7`) {
		t.Fatalf("publish: %d %q", code, body)
	}
}

// FuzzShardAdmin sends a ShardAdmin over a 1-shard store the operations
// the fuzz bytes spell. Each takes one byte (bits 0-6 mod 6 pick the
// operation, bit 7 sends GET in place of POST) and the operand bytes
// after it; missing bytes read as 0:
//
//	0 freeze
//	1 publish of a seq, 2 abort of a seq: one byte b, the current seq
//	  -1, +0, +1 or +2 by b&3 when b < 0x80, else the next 8 bytes
//	  (little-endian) are the seq
//	3 a raw publish body: one length byte, then that many bytes
//	4 an epoch probe
//	5 a mutation through WithMutators, skipped while frozen (it would
//	  block): one byte, an insert when even, else a delete
//
// Every answer is 200, or an httpapi envelope with status 400, 405 or
// 409, the admin's frozen flag follows the store's pending freeze, and
// the epoch seq moves only through a successful publish or an abort
// that reports rolled_back. Whether a later handshake succeeds is not
// checked: a publish of seq 2^64-1 lands, after which the router's
// next seq wraps to 0, which every shard refuses.
func FuzzShardAdmin(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 4, 2, 1, 1, 2, 4})                                        // freeze, stale publish, publish, probe, rollback, publish of nothing
	f.Add([]byte{0, 1, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 0, 1, 2}) // the wrapping seq
	f.Add(append([]byte{0, 3, 22}, `{"seq":9,"abort":true}`...))
	f.Add([]byte{0x80, 0x81, 2, 0x82, 1, 0x84, 5, 0, 5, 1, 0, 5, 1, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ss := hiddendb.NewShardedStore(testSchema(), 1)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		var nextID uint64
		insert := func(b byte) error {
			nextID++
			return ss.Insert(&schema.Tuple{ID: nextID, Vals: []uint16{uint16(b % 7), uint16(b % 5), uint16(b % 4), uint16(b % 6)}})
		}
		for b := byte(0); b < 20; b++ {
			if err := insert(b); err != nil {
				t.Fatal(err)
			}
		}
		admin := NewShardAdmin(ss, webiface.NewHandler(hiddendb.NewShardedIface(ss, 5, nil)), AdminOptions{})

		for len(ops) > 0 {
			op := next()
			before := ss.Epoch().Seq()
			seqArg := func() uint64 {
				b := next()
				if b < 0x80 {
					return before + uint64(b&3) - 1
				}
				var v [8]byte
				for i := range v {
					v[i] = next()
				}
				return binary.LittleEndian.Uint64(v[:])
			}
			method, path, body := http.MethodPost, "/v1/shard/publish", ""
			if op&0x80 != 0 {
				method = http.MethodGet
			}
			switch op & 0x7f % 6 {
			case 0:
				path = "/v1/shard/freeze"
			case 1:
				body = fmt.Sprintf(`{"seq":%d}`, seqArg())
			case 2:
				body = fmt.Sprintf(`{"seq":%d,"abort":true}`, seqArg())
			case 3:
				raw := make([]byte, next())
				for i := range raw {
					raw[i] = next()
				}
				body = string(raw)
			case 4:
				path = "/v1/shard/epoch"
			case 5:
				b := next()
				if ss.EpochFrozen() {
					continue
				}
				err := admin.WithMutators(func() error {
					if b%2 == 0 || ss.Size() == 0 {
						return insert(b)
					}
					_, err := ss.Delete(ss.IDs()[0])
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				path = ""
			}

			rec := httptest.NewRecorder()
			if path != "" {
				admin.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
				switch rec.Code {
				case http.StatusOK:
				case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusConflict:
					if e, ok := httpapi.DecodeError(bytes.NewReader(rec.Body.Bytes())); !ok || e.Code == "" || e.Message == "" {
						t.Fatalf("%s %s %q: %d %q is no error envelope", method, path, body, rec.Code, rec.Body)
					}
				default:
					t.Fatalf("%s %s %q: status %d %q", method, path, body, rec.Code, rec.Body)
				}
			}

			admin.mu.Lock()
			frozen := admin.frozen
			admin.mu.Unlock()
			if frozen != ss.EpochFrozen() {
				t.Fatalf("%s %s %q: admin frozen %v, store frozen %v", method, path, body, frozen, !frozen)
			}
			after := ss.Epoch().Seq()
			if path == "/v1/shard/epoch" && rec.Code == http.StatusOK {
				var probe wireShardEpoch
				if err := json.Unmarshal(rec.Body.Bytes(), &probe); err != nil || probe.Seq != after || probe.Frozen != frozen || probe.Size != ss.Size() {
					t.Fatalf("epoch probe %q (%v), want seq %d, frozen %v, size %d", rec.Body, err, after, frozen, ss.Size())
				}
			}
			if after != before {
				var pub wirePublished
				published := path == "/v1/shard/publish" && rec.Code == http.StatusOK &&
					json.Unmarshal(rec.Body.Bytes(), &pub) == nil && pub.Seq == after &&
					(pub.RolledBack && after < before || !pub.RolledBack && after > before)
				if !published {
					t.Fatalf("%s %s %q answered %d %q, yet moved the seq %d -> %d", method, path, body, rec.Code, rec.Body, before, after)
				}
			}
		}
	})
}

// TestHandshakeRollbackOnFailedPublish: when one shard cannot publish,
// the fleet aborts — shards where the publish already landed roll back —
// and every shard keeps serving the prior epoch; a later handshake with
// the fault healed succeeds and serving matches the reference again.
func TestHandshakeRollbackOnFailedPublish(t *testing.T) {
	injectors := make(map[int]*faultInjector)
	f := newFleet(t, 3, 37, 300, func(i int, h http.Handler) http.Handler {
		fi := &faultInjector{next: h}
		injectors[i] = fi
		return fi
	})
	rt, rtSrv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 1, RequestTimeout: 2 * time.Second}})
	f.round(rt)
	before := rt.Seq()

	seqOf := func(i int) string {
		_, body := fetch(t, http.MethodGet, f.srvs[i].URL+"/v1/shard/epoch", "", "")
		return body
	}
	wantSeq := fmt.Sprintf(`"seq":%d`, before)
	injectors[2].set(func(fi *faultInjector) { fi.failPublish = true })
	if _, err := rt.Handshake(context.Background()); err == nil {
		t.Fatal("handshake must fail when a shard cannot publish")
	}
	for i := range f.srvs {
		body := seqOf(i)
		if !strings.Contains(body, wantSeq) || !strings.Contains(body, `"frozen":false`) {
			t.Fatalf("shard %d after failed handshake: %q, want rolled back to %s and unfrozen", i, body, wantSeq)
		}
	}
	if rt.Seq() != before {
		t.Fatalf("router pinned seq moved to %d on a failed handshake, want %d", rt.Seq(), before)
	}

	injectors[2].set(func(fi *faultInjector) { fi.failPublish = false })
	f.ref.AdvanceEpoch()
	seq, err := rt.Handshake(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if seq <= before {
		t.Fatalf("healed handshake published %d, want > %d", seq, before)
	}
	wantCode, wantBody := fetch(t, http.MethodGet, f.refSrv.URL+"/v1/search?where=1:1", "", "")
	gotCode, gotBody := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=1:1", "", "")
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("post-rollback serving diverges: %d %q vs %d %q", gotCode, gotBody, wantCode, wantBody)
	}
}

// TestRouterKillOneShardRestart is the PR's fault-injection acceptance
// test: kill one shard daemon outright — queries fail with a clean
// unavailable envelope during the outage — then restart it on the same
// address with a freshly rebuilt store. Until the fleet re-handshakes,
// the restarted shard is detected serving a stale epoch and answers
// keep failing fast; after ProbeOnce flags it and Handshake re-aligns
// the fleet, answers are byte-identical to the reference again.
func TestRouterKillOneShardRestart(t *testing.T) {
	f := newFleet(t, 4, 38, 600)
	rt, rtSrv := dialRouter(t, f, Options{Client: webiface.ClientOptions{Retries: 1, RequestTimeout: 2 * time.Second}})
	f.round(rt)

	const victim = 1
	queries := []string{"", "?where=0:1", "?where=1:2&where=2:0", "?where=3:3"}
	verify := func(stage string) {
		t.Helper()
		for _, q := range queries {
			wantCode, wantBody := fetch(t, http.MethodGet, f.refSrv.URL+"/v1/search"+q, "", "")
			gotCode, gotBody := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search"+q, "", "")
			if gotCode != wantCode || gotBody != wantBody {
				t.Fatalf("%s: query %q diverges: %d %q vs %d %q", stage, q, gotCode, gotBody, wantCode, wantBody)
			}
		}
	}
	verify("before outage")

	addr := f.srvs[victim].Listener.Addr().String()
	f.srvs[victim].Close()

	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"unavailable"`) {
		t.Fatalf("during outage: %d %q, want 503 unavailable envelope", code, body)
	}

	// Restart: a fresh process would reload its partition from storage —
	// modeled by cloning the reference store's partition for the victim
	// shard into a brand-new store, with its own (stale) first epoch.
	var reload []*schema.Tuple
	f.ref.Shard(victim).ForEach(func(tp *schema.Tuple) { reload = append(reload, tp.Clone(tp.ID)) })
	ss := hiddendb.NewShardedStore(f.sch, 1)
	if err := ss.ApplyBatch(reload, nil); err != nil {
		t.Fatal(err)
	}
	admin := NewShardAdmin(ss, webiface.NewHandler(hiddendb.NewShardedIface(ss, f.k, nil)), AdminOptions{})
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	hsrv := &http.Server{Handler: admin}
	go func() { _ = hsrv.Serve(ln) }()
	t.Cleanup(func() { _ = hsrv.Close() })
	for i := 0; i < 100; i++ {
		if c, _ := fetch(t, http.MethodGet, "http://"+addr+"/v1/shard/epoch", "", ""); c == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Back up, but on its own stale epoch: serving stays fail-fast.
	code, body = fetch(t, http.MethodGet, rtSrv.URL+"/v1/search?where=0:1", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "re-handshake") {
		t.Fatalf("restarted-but-stale shard: %d %q, want 503 demanding re-handshake", code, body)
	}

	rep := rt.ProbeOnce(context.Background())
	if !rep.NeedsHandshake() {
		t.Fatalf("probe after restart: %+v, want a mismatch demanding handshake", rep)
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		t.Fatal(err)
	}
	verify("after restart and re-handshake")
}

// TestRouterRefusesOverlappingShards: two shard daemons that number
// their tuples from 1 alike, as independently started shard-mode daemons
// do, hold no partition of one database, and merging them would answer
// each shared tuple twice. The router fails such a fan-out with the
// unavailable envelope naming the repeated ID, and counts and logs it
// like any failed fan-out.
func TestRouterRefusesOverlappingShards(t *testing.T) {
	sch := testSchema()
	const n = 200
	var bases []string
	for seed := int64(1); seed <= 2; seed++ {
		ss := hiddendb.NewShardedStore(sch, 1)
		rng := rand.New(rand.NewSource(seed))
		ts := make([]*schema.Tuple, 0, n)
		for id := uint64(1); id <= n; id++ {
			vals := make([]uint16, sch.M())
			for a := range vals {
				vals[a] = uint16(rng.Intn(sch.DomainSize(a)))
			}
			ts = append(ts, &schema.Tuple{ID: id, Vals: vals})
		}
		if err := ss.ApplyBatch(ts, nil); err != nil {
			t.Fatal(err)
		}
		h := webiface.NewHandler(hiddendb.NewShardedIface(ss, 25, nil))
		srv := httptest.NewServer(NewShardAdmin(ss, h, AdminOptions{}))
		t.Cleanup(srv.Close)
		bases = append(bases, srv.URL)
	}
	rt, err := New(bases, Options{Client: webiface.ClientOptions{RequestTimeout: 10 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Handshake(context.Background()); err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	t.Cleanup(rtSrv.Close)

	// Both shards rank the same IDs for the root query, so the first
	// repeat in the merged answer is the best-ranked ID of all.
	best := uint64(1)
	for id := uint64(2); id <= n; id++ {
		if hiddendb.DefaultScorer(&schema.Tuple{ID: id}) > hiddendb.DefaultScorer(&schema.Tuple{ID: best}) {
			best = id
		}
	}
	named := fmt.Sprintf("tuple ID %d twice", best)
	code, body := fetch(t, http.MethodGet, rtSrv.URL+"/v1/search", "", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"unavailable"`) || !strings.Contains(body, named) {
		t.Fatalf("GET over overlapping shards: %d %q, want 503 unavailable envelope naming %q", code, body, named)
	}
	if _, mb := fetch(t, http.MethodGet, rtSrv.URL+"/v1/metrics", "", ""); !strings.Contains(mb, "dynagg_router_failures_total 1") {
		t.Fatalf("the refused fan-out must count as a failure:\n%s", mb)
	}
}
