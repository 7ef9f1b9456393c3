package hiddendb

import (
	"math/bits"
	"reflect"

	"github.com/dynagg/dynagg/internal/schema"
)

// ID-domain scoring.
//
// The dominant cost of an indexed top-k answer is not finding the
// candidates — the intersection kernels run over compact uint16/bitmap
// material — but scoring them: a generic Scorer needs the tuple, and each
// *schema.Tuple dereference is a cache miss on a million-tuple heap. A
// scorer that is a pure function of the tuple ID doesn't need the tuple
// at all: a posting container reconstructs every member's full ID from
// its key and low 16 bits, so candidates can be ranked entirely off index
// material and only the ≤ k winners are ever dereferenced.
//
// The engine recognises such scorers by code-pointer identity against a
// registry of known ID-pure functions (currently DefaultScorer, whose
// tuple- and ID-domain implementations share one body). Top-level
// functions capture no state, so pointer identity is a sound equality
// test; closures can never alias a top-level function's code pointer, so
// a user scorer that merely looks similar still takes the tuple path.
// Both paths rank under the identical strict (score desc, ID asc) order —
// the equivalence tests cover the fast path byte for byte.

// invUint64Max normalises a 64-bit hash into [0,1]; multiplying by the
// precomputed reciprocal is several cycles cheaper than dividing, and it
// runs once per candidate.
const invUint64Max = 1.0 / float64(^uint64(0))

// defaultScoreID is DefaultScorer in the ID domain; DefaultScorer
// delegates to it, so the two can never drift apart.
func defaultScoreID(id uint64) float64 {
	return float64(splitmix64(id)) * invUint64Max
}

var defaultScorerPC = reflect.ValueOf(Scorer(DefaultScorer)).Pointer()

// scorerIsIDPure reports whether the engine knows scorer to be a pure
// function of the tuple ID, i.e. safe to evaluate as defaultScoreID
// without dereferencing the tuple. The scan loops call defaultScoreID
// directly (a static call the compiler can inline) rather than through a
// function value, which is worth ~10% on the indexed hot path.
func scorerIsIDPure(sc Scorer) bool {
	return sc != nil && reflect.ValueOf(sc).Pointer() == defaultScorerPC
}

// idTopK is topK in the ID domain: candidates are ranked by (score, ID)
// with only their container and payload position retained, so no tuple
// memory is touched until drain fetches the winners.
type idTopK struct {
	ids    []uint64
	scores []float64
	srcC   []*pcontainer
	srcP   []int32 // payload index within srcC; container counts fit int32
}

func (h *idTopK) reset() {
	h.ids = h.ids[:0]
	h.scores = h.scores[:0]
	h.srcC = h.srcC[:0]
	h.srcP = h.srcP[:0]
}

func (h *idTopK) worse(i, j int) bool {
	if h.scores[i] != h.scores[j] {
		return h.scores[i] < h.scores[j]
	}
	return h.ids[i] > h.ids[j]
}

func (h *idTopK) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.scores[i], h.scores[j] = h.scores[j], h.scores[i]
	h.srcC[i], h.srcC[j] = h.srcC[j], h.srcC[i]
	h.srcP[i], h.srcP[j] = h.srcP[j], h.srcP[i]
}

func (h *idTopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *idTopK) siftDown(i int) {
	n := len(h.ids)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.worse(r, l) {
			m = r
		}
		if !h.worse(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *idTopK) offer(id uint64, s float64, c *pcontainer, pos int32, k int) {
	if len(h.ids) < k {
		h.ids = append(h.ids, id)
		h.scores = append(h.scores, s)
		h.srcC = append(h.srcC, c)
		h.srcP = append(h.srcP, pos)
		h.siftUp(len(h.ids) - 1)
		return
	}
	if s > h.scores[0] || (s == h.scores[0] && id < h.ids[0]) {
		h.ids[0], h.scores[0], h.srcC[0], h.srcP[0] = id, s, c, pos
		h.siftDown(0)
	}
}

// drain dereferences the retained winners into a freshly allocated
// best-first slice, same (score desc, ID asc) order as topK.drain.
func (h *idTopK) drain() []*schema.Tuple {
	out := make([]*schema.Tuple, len(h.ids))
	for i := len(h.ids) - 1; i >= 0; i-- {
		out[i] = h.srcC[0].tuples[h.srcP[0]]
		last := len(h.ids) - 1
		h.ids[0], h.scores[0], h.srcC[0], h.srcP[0] = h.ids[last], h.scores[last], h.srcC[last], h.srcP[last]
		h.ids = h.ids[:last]
		h.scores = h.scores[:last]
		h.srcC = h.srcC[:last]
		h.srcP = h.srcP[:last]
		h.siftDown(0)
	}
	return out
}

// drop reports that a candidate cannot enter the (full) heap: strictly
// worse than the current root under (score desc, ID asc). Small enough
// to inline at the scan call sites, so the overwhelmingly common reject
// case never pays the offer call.
func (h *idTopK) drop(id uint64, s float64, k int) bool {
	return len(h.ids) == k && (s < h.scores[0] || (s == h.scores[0] && id >= h.ids[0]))
}

// idGather is how many tuple IDs rankRange loads before scoring any of
// them. Each load is a likely cache miss (the ID lives in the tuple, not
// in the sorted pointer slice); issued back to back with no branch in
// between, a block's misses overlap instead of queueing one behind each
// score-and-compare. On BenchmarkSnapshotPrefixWide (a ~20k-tuple range
// of a million-tuple store, 2-vCPU Intel Xeon) 32 took ~0.38 ms per
// query against ~0.53 ms at 8 and ~0.44 ms at 16; 64 gained nothing
// further.
const idGather = 32

// rankRange runs a tuple-range plan with no residual predicates in the
// ID domain: it folds every tuple of [lo, hi) into sc.topk under
// defaultScoreID and adds the range length — the plan's exact match
// count — to sc.matches. Only candidates that rank ahead of the top-k
// bar are admitted. Valid only when pln.postings is unset and rest is
// empty.
func (s *Snapshot) rankRange(pln *queryPlan, sc *queryScratch, k int) {
	ts := s.tuples[pln.lo:pln.hi]
	sc.matches += len(ts)
	h := &sc.topk
	var ids [idGather]uint64
	for len(ts) > 0 {
		blk := ts[:min(len(ts), idGather)]
		for j, t := range blk {
			ids[j] = t.ID
		}
		for j, t := range blk {
			if s := defaultScoreID(ids[j]); !h.drop(ids[j], s) {
				h.push(t, s, k)
			}
		}
		ts = ts[len(blk):]
	}
}

// scanIDScored runs a fully covered postings plan in the ID domain,
// filling sc.idtop with the top k and adding the match count to
// sc.matches. Valid only when pln.postings is set and rest is empty.
func (s *Snapshot) scanIDScored(pln *queryPlan, sc *queryScratch, k int) {
	h := &sc.idtop
	for _, part := range [2]*postingList{pln.seed.val, pln.seed.null} {
		if part == nil {
			continue
		}
		for ci := range part.cs {
			c := &part.cs[ci]
			base := c.key << 16
			if len(pln.others) == 0 {
				// Whole container qualifies; payload position follows
				// enumeration order in both forms.
				sc.matches += c.count()
				if c.bits == nil {
					for i, low := range c.ids {
						id := base | uint64(low)
						if s := defaultScoreID(id); !h.drop(id, s, k) {
							h.offer(id, s, c, int32(i), k)
						}
					}
					continue
				}
				pos := int32(0)
				for w := 0; w < bitmapWords; w++ {
					m := c.bits[w]
					wbase := base | uint64(w)<<6
					for m != 0 {
						id := wbase | uint64(bits.TrailingZeros64(m))
						if s := defaultScoreID(id); !h.drop(id, s, k) {
							h.offer(id, s, c, pos, k)
						}
						pos++
						m &= m - 1
					}
				}
				continue
			}
			surv := sc.runIntersect(c, pln.others)
			sc.matches += len(surv)
			if c.bits == nil {
				j := 0
				for _, low := range surv {
					j = gallopTo(c.ids, j, low)
					id := base | uint64(low)
					if s := defaultScoreID(id); !h.drop(id, s, k) {
						h.offer(id, s, c, int32(j), k)
					}
					j++
				}
			} else {
				for _, low := range surv {
					id := base | uint64(low)
					if s := defaultScoreID(id); !h.drop(id, s, k) {
						h.offer(id, s, c, int32(c.rankOf(low)), k)
					}
				}
			}
		}
	}
}
