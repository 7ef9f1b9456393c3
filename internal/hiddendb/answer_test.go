package hiddendb

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// TestAnswerWireMemoizes: the first Wire call pays the encode, every
// later call returns the SAME backing bytes without re-encoding.
func TestAnswerWireMemoizes(t *testing.T) {
	a := &Answer{res: Result{Overflow: true}}
	var encodes atomic.Int32
	enc := func(res Result) []byte {
		encodes.Add(1)
		return []byte(fmt.Sprintf(`{"overflow":%v}`, res.Overflow))
	}
	first := a.Wire(enc)
	second := a.Wire(enc)
	if n := encodes.Load(); n != 1 {
		t.Fatalf("encode ran %d times, want 1", n)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("wire bytes diverged: %q vs %q", first, second)
	}
	if &first[0] != &second[0] {
		t.Fatal("second Wire call returned a different backing slice")
	}
}

// TestAnswerWireConcurrentOneCanonicalSlice races many first-fill
// encoders: whatever ordering wins the CAS, every caller must end up
// serving literally the same backing bytes.
func TestAnswerWireConcurrentOneCanonicalSlice(t *testing.T) {
	a := &Answer{res: Result{}}
	enc := func(Result) []byte { return []byte(`{"k":0}`) }
	const gs = 32
	out := make([][]byte, gs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < gs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			out[i] = a.Wire(enc)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < gs; i++ {
		if &out[i][0] != &out[0][0] {
			t.Fatalf("goroutine %d adopted a non-canonical slice", i)
		}
	}
}

// TestCacheShardDoSingleflight blocks one compute while concurrent
// duplicates arrive: exactly one engine execution, every waiter counted
// as collapsed, and all callers handed the same *Answer.
func TestCacheShardDoSingleflight(t *testing.T) {
	var sh cacheShard
	var stats cacheStats

	const waiters = 8
	computeEntered := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int32

	results := make([]*Answer, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = sh.do("key", &stats, func() Result {
			close(computeEntered)
			<-release
			computes.Add(1)
			return Result{Overflow: true}
		})
	}()
	<-computeEntered

	// The winner is now mid-compute with no shard locks held; every
	// duplicate must park on its flight rather than recompute.
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sh.do("key", &stats, func() Result {
				t.Error("duplicate compute ran")
				return Result{}
			})
		}(i)
	}
	// Wait until all duplicates are registered as collapsed before
	// releasing the winner, so the count is deterministic.
	for stats.collapsed.Load() != waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different Answer pointer", i)
		}
	}
	got := stats.read()
	want := CacheStats{Hits: 0, Misses: 1, Collapsed: waiters}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}

	// The published entry now serves hits without touching inflight.
	if a := sh.do("key", &stats, func() Result { t.Error("hit recomputed"); return Result{} }); a != results[0] {
		t.Fatal("post-publication hit returned a different Answer")
	}
	if got := stats.read(); got.Hits != 1 {
		t.Fatalf("hit not counted: %+v", got)
	}
}

// TestCacheShardDoPanicDoesNotWedge: a panic inside compute must
// propagate to the winner, wake every parked waiter (who then retry and
// compute for themselves), and leave the (version, key) fully usable —
// not permanently wedged behind a done channel nobody will close.
func TestCacheShardDoPanicDoesNotWedge(t *testing.T) {
	var sh cacheShard
	var stats cacheStats

	computeEntered := make(chan struct{})
	release := make(chan struct{})
	winnerPanic := make(chan any, 1)
	go func() {
		defer func() { winnerPanic <- recover() }()
		sh.do("key", &stats, func() Result {
			close(computeEntered)
			<-release
			panic("engine blew up")
		})
	}()
	<-computeEntered

	const waiters = 4
	results := make([]*Answer, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sh.do("key", &stats, func() Result {
				return Result{Overflow: true}
			})
		}(i)
	}
	// Make sure every waiter is parked on the doomed flight before the
	// panic fires, so the test exercises the wake-up path.
	for stats.collapsed.Load() != waiters {
		runtime.Gosched()
	}
	close(release)

	if r := <-winnerPanic; r == nil {
		t.Fatal("winner's panic was swallowed")
	}
	wg.Wait()
	for i, a := range results {
		if a == nil || !a.res.Overflow {
			t.Fatalf("waiter %d got %v, want a retried answer", i, a)
		}
	}
	// A retrying waiter published the entry, so the key now serves hits.
	a := sh.do("key", &stats, func() Result {
		t.Error("recompute after retry publication")
		return Result{}
	})
	if !a.res.Overflow {
		t.Fatal("post-panic hit returned the wrong answer")
	}
}

// TestIfaceAnswerCacheCounters walks the miss → hit → key-probe →
// invalidation lifecycle through the public Iface surface.
func TestIfaceAnswerCacheCounters(t *testing.T) {
	st := newTestStore(t, 51, 400, []int{8, 6, 10})
	f := NewIface(st, 10, nil)
	q := NewQuery(Pred{Attr: 0, Val: 1})

	// First query at a version is answered ephemerally (no published
	// snapshot or cache yet), the second publishes and still runs the
	// engine; only from the third on does the cache serve.
	for i := 0; i < 2; i++ {
		if _, err := f.SearchAnswer(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.CacheStats(); got.Misses != 2 || got.Hits != 0 {
		t.Fatalf("after two queries (ephemeral + publish): %+v", got)
	}
	if _, err := f.SearchAnswer(q); err != nil {
		t.Fatal(err)
	}
	if got := f.CacheStats(); got.Misses != 2 || got.Hits != 1 {
		t.Fatalf("after repeat query: %+v", got)
	}

	// LookupAnswer by scratch key bytes: hit counts as a served query,
	// miss counts nothing (the caller proceeds to SearchAnswer).
	key := AppendPredsKey(nil, q.Preds())
	qBefore := f.TotalQueries()
	if _, ok := f.LookupAnswer(key); !ok {
		t.Fatal("warm key probe missed")
	}
	if got := f.CacheStats(); got.Hits != 2 {
		t.Fatalf("key probe hit not counted: %+v", got)
	}
	if f.TotalQueries() != qBefore+1 {
		t.Fatal("key probe hit must count as a served query")
	}

	other := AppendPredsKey(nil, []Pred{{Attr: 1, Val: 0}})
	qBefore = f.TotalQueries()
	if _, ok := f.LookupAnswer(other); ok {
		t.Fatal("cold key probe hit")
	}
	if f.TotalQueries() != qBefore {
		t.Fatal("cold key probe must not count as a served query")
	}

	// Any mutation bumps the version: the pre-encoded entry is dead and
	// the next probe must miss.
	if err := st.Insert(&schema.Tuple{ID: 999999, Vals: []uint16{1, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.LookupAnswer(key); ok {
		t.Fatal("key probe hit across a version change")
	}
	if _, err := f.SearchAnswer(q); err != nil {
		t.Fatal(err)
	}
	if got := f.CacheStats(); got.Misses != 3 {
		t.Fatalf("post-mutation query should miss: %+v", got)
	}
}

// TestShardedIfaceAnswerCacheCounters pins the sharded half of the
// cached front: an epoch has no ephemeral first-query path, and a
// session pinned to a superseded epoch answers uncached instead of
// swapping the current epoch's cache out.
func TestShardedIfaceAnswerCacheCounters(t *testing.T) {
	_, ss, churn := mirroredStores(t, 52, 400, 4, []int{8, 6, 10})
	f := NewShardedIface(ss, 10, nil)
	stale := f.NewSession(0) // pinned to the first epoch
	q := NewQuery(Pred{Attr: 0, Val: 1})

	// The first query of an epoch runs the engine; the repeat hits.
	for i := 0; i < 2; i++ {
		if _, err := f.SearchAnswer(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.CacheStats(); got.Misses != 1 || got.Hits != 1 {
		t.Fatalf("after first query and repeat: %+v", got)
	}

	// LookupAnswer: a hit counts one served query, a miss counts none.
	key := AppendPredsKey(nil, q.Preds())
	qBefore := f.TotalQueries()
	if _, ok := f.LookupAnswer(key); !ok {
		t.Fatal("warm key probe missed")
	}
	if got := f.CacheStats(); got.Hits != 2 || f.TotalQueries() != qBefore+1 {
		t.Fatalf("key probe hit must count one hit and one query: %+v, queries %d -> %d",
			got, qBefore, f.TotalQueries())
	}
	other := AppendPredsKey(nil, []Pred{{Attr: 1, Val: 0}})
	qBefore = f.TotalQueries()
	if _, ok := f.LookupAnswer(other); ok {
		t.Fatal("cold key probe hit")
	}
	if f.TotalQueries() != qBefore {
		t.Fatal("cold key probe must not count as a served query")
	}

	// A new epoch retires the old key.
	churn(40, 20)
	ss.AdvanceEpoch()
	if _, ok := f.LookupAnswer(key); ok {
		t.Fatal("key probe hit across an epoch change")
	}
	if _, err := f.SearchAnswer(q); err != nil {
		t.Fatal(err)
	}
	if got := f.CacheStats(); got.Misses != 2 {
		t.Fatalf("first query of the new epoch should miss: %+v", got)
	}

	// The session pinned to the superseded epoch counts a miss and
	// leaves the current epoch's cache in place.
	if _, err := stale.Search(q); err != nil {
		t.Fatal(err)
	}
	if got := f.CacheStats(); got.Misses != 3 || got.Hits != 2 {
		t.Fatalf("stale-pinned query: %+v", got)
	}
	if _, ok := f.LookupAnswer(key); !ok {
		t.Fatal("stale-pinned query swapped out the current epoch's cache")
	}
}

// TestAppendPredsKeyMatchesQueryKey: the scratch-built key the handler
// probes with must be the key SearchAnswer files answers under.
func TestAppendPredsKeyMatchesQueryKey(t *testing.T) {
	preds := []Pred{{Attr: 0, Val: 3}, {Attr: 2, Val: 1}}
	q := NewQuery(preds...)
	a := AppendPredsKey(nil, preds)
	b := q.AppendKey(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("key mismatch: %q vs %q", a, b)
	}
}
