package hiddendb

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// The serving fixture: a million-tuple store over 5 attributes with
// domain size 50, built once and shared by every benchmark in this file
// (the store is never mutated here).
const (
	benchN       = 1_000_000
	benchM       = 5
	benchDomain  = 50
	benchK       = 100
	benchPredAtt = benchM - 1 // last attribute: maximally non-prefix
)

var servingFixture struct {
	once sync.Once
	st   *Store
	snap *Snapshot
}

func servingStore(b *testing.B) (*Store, *Snapshot) {
	servingFixture.once.Do(func() {
		sch := schema.Uniform(benchM, benchDomain)
		st := NewStore(sch)
		rng := rand.New(rand.NewSource(1))
		batch := make([]*schema.Tuple, benchN)
		for i := range batch {
			vals := make([]uint16, benchM)
			for a := range vals {
				vals[a] = uint16(rng.Intn(benchDomain))
			}
			batch[i] = &schema.Tuple{ID: uint64(i + 1), Vals: vals}
		}
		if err := st.ApplyBatch(batch, nil); err != nil {
			panic(err)
		}
		snap := st.Snapshot()
		// Warm the last attribute's posting lists so the indexed
		// benchmarks measure steady-state answering, not the one-off
		// lazy build.
		snap.answerWith(NewQuery(Pred{Attr: benchPredAtt, Val: 0}), benchK, DefaultScorer, strategyPostings)
		servingFixture.st, servingFixture.snap = st, snap
	})
	return servingFixture.st, servingFixture.snap
}

// BenchmarkSnapshotPrefixQuery answers selective canonical-prefix queries
// on the million-tuple snapshot (binary-search range path).
func BenchmarkSnapshotPrefixQuery(b *testing.B) {
	_, snap := servingStore(b)
	queries := make([]Query, benchDomain)
	for v := range queries {
		queries[v] = NewQuery(Pred{Attr: 0, Val: uint16(v)}, Pred{Attr: 1, Val: uint16(v)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Answer(queries[i%len(queries)], benchK, DefaultScorer)
	}
}

// BenchmarkSnapshotPrefixWide answers single-predicate prefix queries on
// attribute 0 of the million-tuple snapshot. Each selects a ~20k-tuple
// range (selectivity 1/50), so the cost is ranking the range rather than
// finding it: the shape of a drill down's upper levels.
func BenchmarkSnapshotPrefixWide(b *testing.B) {
	_, snap := servingStore(b)
	queries := make([]Query, benchDomain)
	for v := range queries {
		queries[v] = NewQuery(Pred{Attr: 0, Val: uint16(v)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Answer(queries[i%len(queries)], benchK, DefaultScorer)
	}
}

// BenchmarkSnapshotNonPrefixIndexed answers selective non-prefix queries
// (predicate on the last attribute) through the inverted posting lists —
// the path the pre-snapshot engine had to serve with a full O(n) scan.
// Compare against BenchmarkSnapshotNonPrefixScan: the ratio is the
// speedup the index buys at 10^6 tuples (selectivity 1/50 ⇒ ~50×).
func BenchmarkSnapshotNonPrefixIndexed(b *testing.B) {
	_, snap := servingStore(b)
	queries := make([]Query, benchDomain)
	for v := range queries {
		queries[v] = NewQuery(Pred{Attr: benchPredAtt, Val: uint16(v)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Answer(queries[i%len(queries)], benchK, DefaultScorer)
	}
}

// BenchmarkSnapshotNonPrefixScan forces the pre-refactor full-scan path
// on the identical queries (the equivalence tests prove the answers are
// byte-identical; only the cost differs).
func BenchmarkSnapshotNonPrefixScan(b *testing.B) {
	_, snap := servingStore(b)
	queries := make([]Query, benchDomain)
	for v := range queries {
		queries[v] = NewQuery(Pred{Attr: benchPredAtt, Val: uint16(v)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.answerWith(queries[i%len(queries)], benchK, DefaultScorer, strategyScan)
	}
}

// ---------------------------------------------------------------------
// Legacy indexed path (the "before" of this refactor)
// ---------------------------------------------------------------------

// legacyScored and legacyHeap reproduce the container/heap tupleHeap the
// posting-container refactor deleted: every Push boxes a legacyScored
// into an interface value (one escape per retained tuple) and every
// candidate dereferences its tuple to score it. Kept verbatim as a cost
// model so BENCH_serving.out carries a before/after pair for the
// indexed hot path; the equivalence is asserted once per process below.
type legacyScored struct {
	t *schema.Tuple
	s float64
}

type legacyHeap []legacyScored

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].s != h[j].s {
		return h[i].s < h[j].s
	}
	return h[i].t.ID > h[j].t.ID
}
func (h legacyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x any)   { *h = append(*h, x.(legacyScored)) }
func (h *legacyHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h legacyHeap) rankLess(i, j int) bool {
	if h[i].s != h[j].s {
		return h[i].s > h[j].s
	}
	return h[i].t.ID < h[j].t.ID
}

// legacyRank adapts legacyHeap to the best-first Result order via
// sort.Sort, mirroring the deleted rankSort (interface-based, boxing).
type legacyRank struct{ legacyHeap }

func (r legacyRank) Less(i, j int) bool { return r.legacyHeap.rankLess(i, j) }

// legacyAnswer is the pre-refactor indexed strategy: pick the predicate
// with the smallest candidate lists, walk every candidate tuple, filter
// with the full q.Matches, and rank through the boxing heap.
func legacyAnswer(s *Snapshot, q Query, k int) Result {
	var bestPP predPostings
	best := -1
	for i, p := range q.Preds() {
		pp, ok := s.candidatePP(p)
		if !ok {
			panic("legacyAnswer: index not built")
		}
		if best == -1 || pp.size < bestPP.size {
			best, bestPP = i, pp
		}
	}
	_ = best
	h := &legacyHeap{}
	matches := 0
	emit := func(t *schema.Tuple) {
		if !q.Matches(t, s.broadMatchNull) {
			return
		}
		matches++
		e := legacyScored{t, DefaultScorer(t)}
		if h.Len() < k {
			heap.Push(h, e) // boxes e into an interface — one escape per push
			return
		}
		if e.s > (*h)[0].s || (e.s == (*h)[0].s && e.t.ID < (*h)[0].t.ID) {
			(*h)[0] = e
			heap.Fix(h, 0)
		}
	}
	if bestPP.val != nil {
		bestPP.val.forEachTuple(emit)
	}
	if bestPP.null != nil {
		bestPP.null.forEachTuple(emit)
	}
	sort.Sort(legacyRank{*h})
	out := make([]*schema.Tuple, h.Len())
	for i, e := range *h {
		out[i] = e.t
	}
	return Result{Tuples: out, Overflow: matches > k}
}

// BenchmarkSnapshotNonPrefixLegacy runs the identical non-prefix
// workload as BenchmarkSnapshotNonPrefixIndexed through the pre-refactor
// path. The name matches the bench-serving filter, so the artifact
// records this before/after pair (ns/op AND allocs/op) side by side.
func BenchmarkSnapshotNonPrefixLegacy(b *testing.B) {
	_, snap := servingStore(b)
	queries := make([]Query, benchDomain)
	for v := range queries {
		queries[v] = NewQuery(Pred{Attr: benchPredAtt, Val: uint16(v)})
	}
	// Guard that the cost model still answers correctly before timing it.
	want := snap.Answer(queries[0], benchK, DefaultScorer)
	got := legacyAnswer(snap, queries[0], benchK)
	if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
		b.Fatalf("legacy path diverged: %d/%v tuples, want %d/%v",
			len(got.Tuples), got.Overflow, len(want.Tuples), want.Overflow)
	}
	for i := range got.Tuples {
		if got.Tuples[i] != want.Tuples[i] {
			b.Fatalf("legacy path diverged at rank %d", i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		legacyAnswer(snap, queries[i%len(queries)], benchK)
	}
}

// fmtKey is the pre-refactor fmt.Fprintf encoder, kept for the
// allocation comparison below.
func fmtKey(q Query) string {
	var sb strings.Builder
	sb.Grow(len(q.Preds()) * 8)
	for _, p := range q.Preds() {
		fmt.Fprintf(&sb, "%d=%d;", p.Attr, p.Val)
	}
	return sb.String()
}

// BenchmarkQueryKey compares the strconv-based cache-key encoder against
// the fmt-based one it replaced. Key() runs once per search on the hot
// path; -benchmem shows the allocation drop (1 alloc vs 2 per predicate).
func BenchmarkQueryKey(b *testing.B) {
	q := NewQuery(
		Pred{Attr: 0, Val: 3}, Pred{Attr: 2, Val: 300},
		Pred{Attr: 5, Val: 1337}, Pred{Attr: 11, Val: 9},
	)
	b.Run("strconv", func(b *testing.B) {
		// The pooled-buffer encoder must allocate only the returned
		// string — enforced, not just reported.
		if allocs := testing.AllocsPerRun(200, func() {
			if q.Key() == "" {
				b.Fatal("empty key")
			}
		}); allocs > 1 {
			b.Fatalf("Query.Key: %.1f allocs/op, want ≤1", allocs)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if q.Key() == "" {
				b.Fatal("empty key")
			}
		}
	})
	b.Run("fmt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fmtKey(q) == "" {
				b.Fatal("empty key")
			}
		}
	})
}
