package hiddendb

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/dynagg/dynagg/internal/schema"
)

// Scorer is the proprietary ranking function of the web interface: higher
// scores rank earlier, so an overflowing query returns the k highest-scored
// matching tuples. The paper treats the scoring function as an opaque
// property of the site; estimator correctness must not depend on it, which
// the test suite verifies by running the estimators under several scorers.
// A Scorer must be a pure function of its tuple — it is called from
// concurrent reader goroutines.
type Scorer func(*schema.Tuple) float64

// DefaultScorer ranks tuples by a deterministic hash of their ID — an
// arbitrary-but-stable stand-in for a site's relevance ranking. It is a
// pure function of the tuple ID, which the answering engine exploits to
// rank candidates straight off posting containers (idscore.go).
func DefaultScorer(t *schema.Tuple) float64 {
	return defaultScoreID(t.ID)
}

// AuxScorer ranks tuples by their i-th auxiliary payload (e.g. price),
// modelling sites that sort by price or recency.
func AuxScorer(i int) Scorer {
	return func(t *schema.Tuple) float64 {
		if i < len(t.Aux) {
			return t.Aux[i]
		}
		return 0
	}
}

// splitmix64 is the SplitMix64 finalizer, a strong deterministic mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Iface is the restrictive search interface over a Store: conjunctive
// queries in, at most k ranked tuples plus an overflow flag out. Queries
// are answered against the store's current immutable Snapshot, with a
// sharded per-version answer cache in front; the cache is purely a
// simulator-side speedup (the same query re-issued within a round returns
// the same answer anyway, since the round-update model freezes the data)
// and never affects query-cost accounting, which is done by Session.
//
// Concurrency: an Iface is safe for any number of concurrent reader
// goroutines — the snapshot pointer, answer cache and lifetime query
// counter are all lock-free or sharded — so one Iface can serve many
// sessions searching the same frozen round at once (the webiface.Handler
// serving path) while the harness applies updates between rounds.
// Sessions remain single-goroutine: give each client goroutine its own.
type Iface struct {
	front
	st *Store
}

// front is the cached answering layer Iface and ShardedIface share: the
// result cap and scorer, the lifetime query and cache counters, and the
// per-version answer cache with its singleflight (answer.go). The
// embedding type only picks the frozen state each query is answered on:
// Iface the store's current Snapshot, ShardedIface a pinned Epoch.
type front struct {
	k       int
	scorer  Scorer
	queries atomic.Uint64 // lifetime query count across all sessions
	cache   atomic.Pointer[answerCache]
	stats   cacheStats
	// stale, when set, reports that a cache version is no longer the
	// current one: answers pinned to it bypass the cache rather than
	// swap the current version's cache out from under everyone else.
	stale func(version uint64) bool
}

// frozen is an immutable state a front answers on — a store's Snapshot
// or a sharded Epoch: the same value answers a query identically forever.
// rangeCount returns |Sel(q)| when q plans as bare tuple ranges (no
// postings, no residual predicates), where the count is the ranges'
// length; ok=false for every other plan.
type frozen interface {
	Answer(q Query, k int, scorer Scorer) Result
	rangeCount(q Query) (n int, ok bool)
}

// setup fixes the result cap and scorer (nil for the default hash
// ranking). It panics if k < 1.
func (f *front) setup(k int, scorer Scorer) {
	if k < 1 {
		panic("hiddendb: interface k must be >= 1")
	}
	if scorer == nil {
		scorer = DefaultScorer
	}
	f.k, f.scorer = k, scorer
}

// K returns the result cap of the interface.
func (f *front) K() int { return f.k }

// TotalQueries returns the lifetime number of queries answered, across all
// sessions — the harness uses it for cumulative query-cost figures.
func (f *front) TotalQueries() uint64 { return f.queries.Load() }

// CacheStats returns the lifetime answer-cache counters.
func (f *front) CacheStats() CacheStats { return f.stats.read() }

// cacheFor returns the answer cache for the given version, swapping a
// fresh one in when the interface moved on.
func (f *front) cacheFor(version uint64) *answerCache {
	for {
		c := f.cache.Load()
		if c != nil && c.version == version {
			return c
		}
		nc := newAnswerCache(version)
		if f.cache.CompareAndSwap(c, nc) {
			return nc
		}
	}
}

// answer resolves q on fz, the frozen state of the given cache version,
// through the per-version cache — collapsing concurrent identical queries
// into one engine execution — or as an uncached miss when fz is stale or
// q is a probe its range length decides.
func (f *front) answer(fz frozen, version uint64, q Query) *Answer {
	if a := f.probe(fz, q); a != nil {
		return a
	}
	if f.stale != nil && f.stale(version) {
		return f.miss(fz, q)
	}
	c := f.cacheFor(version)
	key := q.Key()
	return c.shard(key).do(key, &f.stats, func() Result {
		return fz.Answer(q, f.k, f.scorer)
	})
}

// miss answers q on fz without the cache, counting one engine execution.
func (f *front) miss(fz frozen, q Query) *Answer {
	f.stats.misses.Add(1)
	return &Answer{res: fz.Answer(q, f.k, f.scorer)}
}

// probe answers a probe that plans as a bare tuple range holding more
// than k tuples as an overflow with no tuples, from the range length
// alone: it scores, ranks and caches nothing, and counts one uncached
// engine execution. It returns nil for every other query, which takes
// the full path.
func (f *front) probe(fz frozen, q Query) *Answer {
	if !q.probe {
		return nil
	}
	if n, ok := fz.rangeCount(q); !ok || n <= f.k {
		return nil
	}
	f.stats.misses.Add(1)
	return &Answer{res: Result{Overflow: true}}
}

// lookup is the serving fast path: probe the cache of the current
// version by already-encoded key bytes (Query.AppendKey) without
// constructing a Query. A hit counts as one answered query; a miss
// counts nothing — the caller falls back to the full path, which does
// its own accounting.
func (f *front) lookup(version uint64, key []byte) (*Answer, bool) {
	c := f.cache.Load()
	if c == nil || c.version != version {
		return nil, false
	}
	a, ok := c.shardBytes(key).get(key)
	if !ok {
		return nil, false
	}
	f.queries.Add(1)
	f.stats.hits.Add(1)
	return a, true
}

// cacheShardCount shards the per-version answer cache to keep concurrent
// sessions off each other's locks. Must be a power of two.
const cacheShardCount = 16

var cacheSeed = maphash.MakeSeed()

// answerCache is one store version's sharded result cache; a version
// change swaps the whole cache atomically.
type answerCache struct {
	version uint64
	shards  [cacheShardCount]cacheShard
}

// cacheShard lazily allocates its maps: versions churn on every mutation
// in the constant-update model, and most shards of most versions are
// never touched. m holds published answers; inflight holds one flight
// per key currently being computed (singleflight, see answer.go).
type cacheShard struct {
	mu       sync.RWMutex
	m        map[string]*Answer
	inflight map[string]*flight
}

// get probes the published answers by raw key bytes — the serving fast
// path calls it with a scratch-built key and never materializes the
// string (the map lookup conversion does not allocate).
func (sh *cacheShard) get(key []byte) (*Answer, bool) {
	sh.mu.RLock()
	a, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	return a, ok
}

func newAnswerCache(version uint64) *answerCache {
	return &answerCache{version: version}
}

func (c *answerCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(cacheSeed, key)&(cacheShardCount-1)]
}

// shardBytes is shard for a key still in scratch bytes; maphash.Bytes
// hashes identically to maphash.String over the same content.
func (c *answerCache) shardBytes(key []byte) *cacheShard {
	return &c.shards[maphash.Bytes(cacheSeed, key)&(cacheShardCount-1)]
}

// NewIface creates a top-k view of the store. scorer may be nil for the
// default hash ranking. It panics if k < 1.
func NewIface(st *Store, k int, scorer Scorer) *Iface {
	f := &Iface{st: st}
	f.setup(k, scorer)
	return f
}

// Schema returns the queryable schema.
func (f *Iface) Schema() *schema.Schema { return f.st.Schema() }

// Snapshot returns the immutable snapshot the interface currently answers
// from. Harness/serving-side only: it exposes |D| and the raw tuples, so
// it is deliberately not part of the restricted Searcher capability.
func (f *Iface) Snapshot() *Snapshot { return f.st.Snapshot() }

// Version returns the store version the interface currently answers for,
// without forcing snapshot publication (serving diagnostics).
func (f *Iface) Version() uint64 { return f.st.Version() }

// Search answers one query. It never fails; budget enforcement lives in
// Session. A probe (Query.Probe) that plans as a bare tuple range of more
// than k tuples is answered as an overflow with no tuples.
//
// The first query of a store version is answered directly under the
// store's lock from a reusable ephemeral snapshot; a version only gets a
// published (copy-on-write) snapshot and cache once a second query hits
// it. The constant-update model — one mutation before every query —
// therefore pays no publication cost, while round-update and serving
// workloads (many queries per frozen version) run lock-free on the
// published snapshot after the first two queries.
func (f *Iface) Search(q Query) (Result, error) {
	return f.searchAnswer(q).res, nil
}

// SearchAnswer is Search returning the shared cached *Answer, so the
// serving layer can memoize the wire encoding next to the Result
// (answer.go). Uncached paths (the ephemeral first query of a version)
// return a fresh Answer whose wire slot still memoizes within the
// request that holds it.
func (f *Iface) SearchAnswer(q Query) (*Answer, error) {
	return f.searchAnswer(q), nil
}

func (f *Iface) searchAnswer(q Query) *Answer {
	f.queries.Add(1)
	if s := f.st.snap.Load(); s != nil && s.version == f.st.version.Load() {
		return f.answer(s, s.version, q)
	}
	f.st.snapMu.Lock()
	v := f.st.version.Load()
	if s := f.st.snap.Load(); s != nil && s.version == v {
		f.st.snapMu.Unlock()
		return f.answer(s, s.version, q)
	}
	if f.st.lastQueried == v {
		// Second query at this version: it is worth freezing.
		s := f.st.publishLocked()
		f.st.snapMu.Unlock()
		return f.answer(s, s.version, q)
	}
	f.st.lastQueried = v
	eph := f.st.ephemeralLocked()
	a := f.probe(eph, q)
	if a == nil {
		a = f.miss(eph, q)
	}
	f.st.snapMu.Unlock()
	return a
}

// LookupAnswer is the serving fast path (see front.lookup). It only hits
// when the store has a current published snapshot AND the cache already
// holds the key, so it can never observe a version the full path would
// not.
func (f *Iface) LookupAnswer(key []byte) (*Answer, bool) {
	s := f.st.snap.Load()
	if s == nil || s.version != f.st.version.Load() {
		return nil, false
	}
	return f.lookup(s.version, key)
}

// Session enforces the per-round query budget G on top of any
// Searcher — an Iface, an epoch-pinned view of a ShardedIface, or a
// remote webiface.Client — and optionally drives the constant-update
// model by running a hook before each query (the harness uses the hook to
// apply mid-round updates, modelling databases that change while the
// algorithm is executing, §5.2).
//
// Budget accounting is atomic claim-before-issue: a query is charged
// before it is issued, and a failed claim IS the round's budget death.
// So one Session may be shared by the bounded fan-out of the estimator
// execution engine (several goroutines issuing one round's drill-down
// walks). With a pre-search hook installed the session reverts to
// single-goroutine use — the hook couples query order to database
// mutation — and reports so via ConcurrentSearchable.
type Session struct {
	b         Searcher
	g         int // >= 0
	used      atomic.Int64
	preSearch func(queryIndex int)
}

// NewSession starts a round over b that answers at most G queries (none
// when G <= 0).
func NewSession(b Searcher, g int) *Session {
	return &Session{b: b, g: max(g, 0)}
}

// NewSession starts a round that answers at most G queries (none when
// G <= 0).
func (f *Iface) NewSession(g int) *Session { return NewSession(f, g) }

// SetPreSearchHook installs fn, invoked with the 0-based index of each
// query just before it is answered. Harness-only: estimators never see
// it, and installing it makes the session single-goroutine again.
func (s *Session) SetPreSearchHook(fn func(queryIndex int)) { s.preSearch = fn }

// ConcurrentSearchable reports whether concurrent Search calls are safe:
// true unless a pre-search hook mutates the database per query.
func (s *Session) ConcurrentSearchable() bool { return s.preSearch == nil }

// Search issues one query, consuming one unit of budget.
func (s *Session) Search(q Query) (Result, error) {
	idx, ok := s.claim()
	if !ok {
		return Result{}, ErrBudgetExhausted
	}
	if s.preSearch != nil {
		s.preSearch(idx)
	}
	return s.b.Search(q)
}

// SearchBatch issues qs as ordered Search calls, charging one unit of
// budget per query. Queries past the budget, and any query whose search
// fails, come back as items carrying the error; the error return is
// always nil.
func (s *Session) SearchBatch(qs []Query) ([]BatchItem, error) {
	items := make([]BatchItem, len(qs))
	for i, q := range qs {
		r, err := s.Search(q)
		items[i] = BatchItem{Result: r, Err: err}
	}
	return items, nil
}

// K returns the interface's result cap.
func (s *Session) K() int { return s.b.K() }

// Schema returns the queryable schema.
func (s *Session) Schema() *schema.Schema { return s.b.Schema() }

// claim charges one query, returning its 0-based index and whether the
// budget allowed it.
func (s *Session) claim() (int, bool) {
	for {
		u := s.used.Load()
		if u >= int64(s.g) {
			return 0, false
		}
		if s.used.CompareAndSwap(u, u+1) {
			return int(u), true
		}
	}
}

// Used returns the number of queries issued in this session.
func (s *Session) Used() int { return int(s.used.Load()) }

// Remaining returns the unused budget, never negative.
func (s *Session) Remaining() int { return s.g - s.Used() }

// Budget returns the session's budget G (0 when it was started with
// G <= 0).
func (s *Session) Budget() int { return s.g }

var _ ConcurrentSearcher = (*Session)(nil)
var _ BatchSearcher = (*Session)(nil)

// AsSearcher returns the interface as an unbudgeted Searcher (tests,
// ground-truth-free exploration tools).
func (f *Iface) AsSearcher() Searcher { return f }
