package hiddendb

import "sync/atomic"

// Cached answers and the serving fast path.
//
// The per-version answer cache (iface.go) stores *Answer values rather
// than bare Results, which buys the HTTP serving layer two things:
//
//   - Wire memoization: the serving layer encodes an answer to its wire
//     form (JSON today) at most once per version — Answer.Wire fills an
//     atomic slot on first use, and every later cache hit for the same
//     query under the same version is a single buffer write with no
//     re-encode. The engine stays wire-format-agnostic: it only carries
//     the opaque bytes.
//   - Singleflight dedup: concurrent identical queries on the same
//     version collapse into ONE engine execution. The per-cache-shard
//     in-flight table (cacheShard.do) makes a hot-key storm cost one
//     intersection instead of N; waiters receive the winner's *Answer,
//     so winner and waiters are byte-identical by construction.
//
// Both are correct only because the round/version model freezes the data
// a version serves: the same query on the same version has exactly one
// answer, so caching the serialized bytes is as sound as caching the
// Result (the source paper's round model, §2.1).

// Answer is one cached query answer: the engine Result plus a lazily
// memoized wire encoding filled by the serving layer. Answers are
// immutable once published — callers must not modify Result().Tuples —
// and safe to share across any number of goroutines.
type Answer struct {
	res  Result
	wire atomic.Pointer[[]byte]
}

// NewAnswer wraps a Result computed outside the answer cache, such as
// the router's merge of per-shard partials, so the serving layer can
// encode it like a cached one.
func NewAnswer(res Result) *Answer { return &Answer{res: res} }

// Result returns the engine result. The tuple slice is shared with every
// other holder of this Answer; treat it as read-only.
func (a *Answer) Result() Result { return a.res }

// Wire returns the answer's memoized wire encoding, computing it with
// encode on first use. encode must be a pure function of the Result
// (every caller of one Answer must encode identically); when two
// goroutines race the first fill, one encoding wins the slot and both
// return byte-identical content. The returned slice is shared: callers
// write it out but never modify it.
func (a *Answer) Wire(encode func(Result) []byte) []byte {
	if b := a.wire.Load(); b != nil {
		return *b
	}
	b := encode(a.res)
	if !a.wire.CompareAndSwap(nil, &b) {
		// A concurrent encoder won the slot; use the canonical copy so
		// every caller serves literally the same backing bytes.
		return *a.wire.Load()
	}
	return b
}

// CacheStats is a point-in-time reading of an interface's answer-cache
// counters, accumulated over the interface lifetime (across versions).
type CacheStats struct {
	// Hits counts answers served from the per-version cache, including
	// the key-bytes fast path (LookupAnswer).
	Hits uint64
	// Misses counts engine executions: cache misses that ran the
	// intersection machinery, plus uncached paths (ephemeral first-query
	// answers, sessions pinned to a superseded epoch, and probes decided
	// by their range length).
	Misses uint64
	// Collapsed counts queries that joined another goroutine's in-flight
	// execution of the same key instead of running their own — the
	// queries singleflight saved.
	Collapsed uint64
}

// cacheStats is the live atomic form of CacheStats.
type cacheStats struct {
	hits, misses, collapsed atomic.Uint64
}

func (s *cacheStats) read() CacheStats {
	return CacheStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Collapsed: s.collapsed.Load(),
	}
}

// flight is one in-progress engine execution other goroutines can wait
// on. done is closed after a is set.
type flight struct {
	done chan struct{}
	a    *Answer
}

// do resolves key through the shard: a cache hit returns the published
// Answer, a concurrent duplicate waits on the in-flight execution, and
// exactly one caller per (version, key) runs compute. compute runs
// without shard locks held, so slow intersections never block unrelated
// keys hashing to the same shard from hitting the cache... they only
// queue behind the map mutex itself.
func (sh *cacheShard) do(key string, stats *cacheStats, compute func() Result) *Answer {
	sh.mu.Lock()
	if a, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		stats.hits.Add(1)
		return a
	}
	if fl, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		stats.collapsed.Add(1)
		<-fl.done
		if fl.a == nil {
			// The winner panicked before publishing. Its flight has been
			// withdrawn, so retry from the top: hit the cache if another
			// goroutine published meanwhile, else run compute ourselves.
			return sh.do(key, stats, compute)
		}
		return fl.a
	}
	fl := &flight{done: make(chan struct{})}
	if sh.inflight == nil {
		sh.inflight = make(map[string]*flight)
	}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	stats.misses.Add(1)
	published := false
	defer func() {
		if published {
			return
		}
		// compute panicked: withdraw the flight and wake the waiters so
		// they retry instead of blocking forever on a done channel nobody
		// will close, then let the panic propagate.
		sh.mu.Lock()
		delete(sh.inflight, key)
		sh.mu.Unlock()
		close(fl.done)
	}()
	fl.a = &Answer{res: compute()}

	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]*Answer)
	}
	sh.m[key] = fl.a
	delete(sh.inflight, key)
	sh.mu.Unlock()
	published = true
	close(fl.done)
	return fl.a
}
