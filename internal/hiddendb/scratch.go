package hiddendb

import (
	"cmp"
	"slices"
	"sync"

	"github.com/dynagg/dynagg/internal/schema"
)

// Pooled per-query scratch.
//
// Every query borrows one queryScratch from a process-wide sync.Pool for
// the duration of the call: intersection ping-pong buffers, the covered/
// uncovered predicate split, and the top-k buffers all live here, so
// the steady-state answering path allocates only the Result slice it
// hands back. The pool is snapshot-independent — scratch holds no
// reference to any snapshot after putScratch, which nils out every
// pointer-carrying field precisely so the pool cannot pin tuples (or,
// through them, retired snapshots) in memory.
//
// Ownership rule (part of the package concurrency contract): scratch
// never escapes the query that borrowed it. Results are freshly
// allocated by topK.drain, survivors/buffers are only ever read between
// getScratch and putScratch, and a scratch is owned by exactly one
// goroutine at a time — the query's own (a scatter-gather query folds
// every shard through one scratch, sequentially).

// topK keeps the best k tuples offered so far under the strict
// (score desc, ID asc) total order. Offers append to an unordered
// buffer; when it reaches 2k entries, a quickselect keeps the best k and
// the worst of those becomes the bar: a later candidate that does not
// rank ahead of it cannot be in the top k and is dropped on one
// comparison. drain selects the final k and sorts them. Admitting a
// candidate therefore costs O(1) amortised (one linear selection per k
// admissions) where a binary heap pays O(log k), and ordering the result
// is one sort where a heap pays k sift-downs.
type topK struct {
	items []scoredTuple
	bar   scoredTuple // worst retained entry of the last cut; valid when cut
	cut   bool
}

// scoredTuple is one top-k candidate.
type scoredTuple struct {
	t *schema.Tuple
	s float64
}

// compareAhead orders candidates best-first: higher score, then smaller
// ID. It is negative when a ranks ahead of b.
func compareAhead(a, b scoredTuple) int {
	if a.s != b.s {
		if a.s > b.s {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.t.ID, b.t.ID)
}

func (h *topK) reset() {
	h.items = h.items[:0]
	h.bar = scoredTuple{}
	h.cut = false
}

// offer considers one scored tuple for the top k.
func (h *topK) offer(t *schema.Tuple, s float64, k int) {
	if !h.drop(t.ID, s) {
		h.push(t, s, k)
	}
}

// push admits a candidate that drop let through.
func (h *topK) push(t *schema.Tuple, s float64, k int) {
	h.items = append(h.items, scoredTuple{t, s})
	if len(h.items) >= 2*k {
		h.keep(k)
	}
}

// drop reports that a candidate with this ID and score cannot be in the
// top k: compareAhead does not put it ahead of the bar. Small enough to
// inline at the range ranking loop, so a rejected candidate never pays
// the offer call.
func (h *topK) drop(id uint64, s float64) bool {
	return h.cut && (s < h.bar.s || (s == h.bar.s && id >= h.bar.t.ID))
}

// keep cuts the buffer to its best k entries (k < len) and raises the
// bar to the worst of them.
func (h *topK) keep(k int) {
	selectAhead(h.items, k-1)
	h.items = h.items[:k]
	h.bar = h.items[k-1]
	h.cut = true
}

// selectAhead reorders items so that items[n] is the entry that would
// sit at index n if items were sorted best-first, with every entry before
// it ranking no worse and every entry after it no better (Hoare's FIND
// with a median-of-three pivot: expected linear time).
func selectAhead(items []scoredTuple, n int) {
	lo, hi := 0, len(items)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareAhead(items[mid], items[lo]) < 0 {
			items[mid], items[lo] = items[lo], items[mid]
		}
		if compareAhead(items[hi], items[lo]) < 0 {
			items[hi], items[lo] = items[lo], items[hi]
		}
		if compareAhead(items[hi], items[mid]) < 0 {
			items[hi], items[mid] = items[mid], items[hi]
		}
		pivot := items[mid]
		i, j := lo, hi
		for i <= j {
			for compareAhead(items[i], pivot) < 0 {
				i++
			}
			for compareAhead(pivot, items[j]) < 0 {
				j--
			}
			if i <= j {
				items[i], items[j] = items[j], items[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
}

// drain returns the top k best-first in a freshly allocated slice — the
// one steady-state allocation of the answering path — and empties the
// buffer.
func (h *topK) drain(k int) []*schema.Tuple {
	if len(h.items) > k {
		h.keep(k)
	}
	slices.SortFunc(h.items, compareAhead)
	out := make([]*schema.Tuple, len(h.items))
	for i := range h.items {
		out[i] = h.items[i].t
	}
	h.reset()
	return out
}

// queryScratch is the reusable per-query working set.
type queryScratch struct {
	topk    topK
	idtop   idTopK // ID-domain heap for ID-pure scorers (idscore.go)
	matches int

	// plan storage: covered predicates (posting lists to intersect) and
	// uncovered ones (filtered tuple-by-tuple at emit time).
	preds []predPostings
	rest  []Pred

	// prefix-range probe vector.
	prefix []uint16

	// intersection buffers: bufA/bufB ping-pong the running survivor
	// set, bufC/bufD hold the two per-predicate parts (value list and
	// NULL list) before their disjoint union.
	bufA, bufB, bufC, bufD []uint16
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

// putScratch returns a scratch to the pool with every pointer-carrying
// field cleared, so pooled scratch never keeps tuples, posting lists or
// snapshots alive.
func putScratch(sc *queryScratch) {
	ts := sc.topk.items[:cap(sc.topk.items)]
	for i := range ts {
		ts[i] = scoredTuple{}
	}
	sc.topk.reset()
	cs := sc.idtop.srcC[:cap(sc.idtop.srcC)]
	for i := range cs {
		cs[i] = nil
	}
	sc.idtop.reset()
	ps := sc.preds[:cap(sc.preds)]
	for i := range ps {
		ps[i] = predPostings{}
	}
	sc.preds = sc.preds[:0]
	sc.rest = sc.rest[:0]
	sc.matches = 0
	scratchPool.Put(sc)
}
