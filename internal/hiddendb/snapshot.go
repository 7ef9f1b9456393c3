package hiddendb

import (
	"sync"
	"sync/atomic"

	"github.com/dynagg/dynagg/internal/schema"
)

// Snapshot is one immutable, fully consistent version of a Store: the
// sorted tuple sequence (seq.go) plus per-(attribute, value)
// roaring-style posting lists (see posting.go). A snapshot never changes
// after publication — the Store copies the leaf arrays, each leaf and
// each attribute's list map a snapshot references before changing them,
// and never writes a posting list once built — so any number of
// goroutines may answer queries against one snapshot while the harness
// prepares the next round's updates. Publishing costs O(attributes); the
// first mutation after it copies the leaf arrays (O(n/leaf)) and the
// leaves it writes, and the snapshot keeps sharing every other leaf.
//
// Query answering picks between three strategies by estimated cost:
//
//   - prefix: two O(log n) binary searches find the contiguous range of
//     the query's canonical prefix, and ranking it loads every one of
//     its r tuples (O(r): the ID a scorer reads lives in the tuple);
//   - postings: intersect the candidate posting lists of every covered
//     predicate — seeded from the smallest — with the galloping/bitmap
//     kernels in intersect.go, then gather only the survivors back to
//     tuples (under DefaultScorer, only those that clear the top-k bar);
//   - scan: the full O(n) pass (the only option the pre-snapshot engine
//     had for non-prefix queries).
//
// All three return byte-identical Results: the top-k set under the strict
// (score desc, ID asc) order is independent of iteration order, which the
// equivalence tests in snapshot_test.go verify exhaustively.
//
// The answering path allocates only the Result slice it returns; all
// intermediate state lives in pooled per-query scratch (scratch.go).
type Snapshot struct {
	sch            *schema.Schema
	seq            tupleSeq   // canonical (Vals, ID) order
	attrs          []snapAttr // one per schema attribute
	broadMatchNull bool
	version        uint64
}

// snapAttr holds one attribute's posting lists. Store-maintained
// attributes carry their (immutable) lists directly; inactive attributes
// get a lazyIndex that is built on first demand by whichever reader needs
// it, and whose demand flag tells the Store to start maintaining that
// attribute incrementally from the next version on.
type snapAttr struct {
	lists map[uint16]*postingList
	lazy  *lazyIndex
}

// lazyIndex builds an attribute's posting lists on first use, once,
// shared by all readers of the snapshot.
type lazyIndex struct {
	once     sync.Once
	built    atomic.Pointer[map[uint16]*postingList]
	demanded atomic.Bool
}

// build scans the snapshot's tuples once and materialises every value's
// posting list for the attribute.
func (li *lazyIndex) build(attr int, seq *tupleSeq) map[uint16]*postingList {
	li.demanded.Store(true)
	li.once.Do(func() {
		m := buildAttrIndex(seq, attr).lists
		li.built.Store(&m)
	})
	return *li.built.Load()
}

// loaded returns the lists if already built, without triggering a build.
func (li *lazyIndex) loaded() map[uint16]*postingList {
	if p := li.built.Load(); p != nil {
		return *p
	}
	return nil
}

// Version returns the store version this snapshot was taken at.
func (s *Snapshot) Version() uint64 { return s.version }

// Size returns the number of tuples frozen in the snapshot, |D|.
func (s *Snapshot) Size() int { return s.seq.len() }

// Schema returns the snapshot's schema.
func (s *Snapshot) Schema() *schema.Schema { return s.sch }

// BroadMatchNull reports the NULL policy frozen into the snapshot.
func (s *Snapshot) BroadMatchNull() bool { return s.broadMatchNull }

// ForEach visits every tuple in canonical order.
func (s *Snapshot) ForEach(fn func(*schema.Tuple)) {
	for _, l := range s.seq.leaves {
		for _, t := range l.ts {
			fn(t)
		}
	}
}

// CountMatching returns |Sel(q)| exactly — ground truth only, never
// exposed through the restricted interface. When every predicate is
// covered by posting lists the count comes straight off the intersection
// survivor sizes, without gathering a single tuple.
func (s *Snapshot) CountMatching(q Query) int {
	sc := getScratch()
	defer putScratch(sc)
	pln := s.plan(q, strategyAuto, sc)
	if pln.postings && len(pln.rest) == 0 {
		return s.countPostings(&pln, sc)
	}
	n := 0
	s.execPlan(&pln, sc, func(*schema.Tuple) { n++ })
	return n
}

// rangeCount returns |Sel(q)| as hi − lo for exactly the queries plan
// answers as a bare tuple range, with no postings and no residual
// predicates: the root, and a canonical prefix while broad-match NULL is
// off (a covering posting list is never smaller than the prefix range).
// Any other query reports ok=false, since counting it would cost a scan
// the answer cache may already have paid for.
func (s *Snapshot) rangeCount(q Query) (n int, ok bool) {
	if len(q.preds) == 0 {
		return s.seq.len(), true
	}
	if s.broadMatchNull || q.prefixLen() < len(q.preds) {
		return 0, false
	}
	sc := getScratch()
	defer putScratch(sc)
	lo, hi := s.prefixRange(q, len(q.preds), sc)
	return hi - lo, true
}

// strategy selects a query's access path. Tests force each strategy
// explicitly to prove they answer identically.
type strategy int

const (
	strategyAuto strategy = iota
	strategyScan
	strategyPrefix
	strategyPostings
)

// queryPlan is one query's resolved access path: either a tuple-range
// scan ([lo,hi) filtered by rest) or a postings intersection (seed ∩
// others, gathered survivors filtered by rest). Its slices alias the
// scratch that built it.
type queryPlan struct {
	postings bool
	lo, hi   int // scan path: tuple range
	pl       int // scan path: canonical prefix length already applied
	seed     predPostings
	others   []predPostings // remaining covered predicates, size-ascending
	rest     []Pred         // uncovered predicates, filtered at emit
}

// prefixRange locates the contiguous range of tuples matching the query's
// canonical-order prefix of length pl (pl ≥ 1, no broad-match NULLs): it
// starts at the prefix and ends where the prefix with its last value
// raised by one starts (a prefix value is never NullCode, the largest).
func (s *Snapshot) prefixRange(q Query, pl int, sc *queryScratch) (lo, hi int) {
	prefix := sc.prefix[:0]
	for i := 0; i < pl; i++ {
		prefix = append(prefix, q.preds[i].Val)
	}
	sc.prefix = prefix
	lo = s.seq.search(prefix, 0)
	prefix[pl-1]++
	return lo, s.seq.search(prefix, 0)
}

// candidatePP returns the candidate posting lists covering predicate p,
// or ok=false when the attribute's index is not materialised yet. Under
// broad-match NULL semantics a tuple with NULL in p.Attr also matches, so
// the NULL list joins the candidate set for nullable attributes.
func (s *Snapshot) candidatePP(p Pred) (pp predPostings, ok bool) {
	sa := &s.attrs[p.Attr]
	m := sa.lists
	if m == nil {
		if sa.lazy == nil {
			return predPostings{}, false
		}
		if m = sa.lazy.loaded(); m == nil {
			return predPostings{}, false
		}
	}
	pp.val = m[p.Val]
	if s.broadMatchNull && p.Val != schema.NullCode && s.sch.Attr(p.Attr).Nullable {
		pp.null = m[schema.NullCode]
	}
	pp.size = pp.val.size() + pp.null.size()
	return pp, true
}

// materialisePP builds the lazy index for p's attribute and returns its
// candidate lists. ok=false on ephemeral snapshots, which carry no lazy
// builders (they answer exactly one query and are never shared).
func (s *Snapshot) materialisePP(p Pred) (predPostings, bool) {
	sa := &s.attrs[p.Attr]
	if sa.lists == nil {
		if sa.lazy == nil {
			return predPostings{}, false
		}
		sa.lazy.build(p.Attr, &s.seq)
	}
	return s.candidatePP(p)
}

// plan resolves the access path for q under the given (possibly forced)
// strategy. The chosen path — and the exact set of tuples it will visit —
// matches the pre-posting engine decision for decision: prefix ranges are
// unusable under broad-match NULLs, the smallest candidate set seeds the
// intersection (earliest predicate wins ties), and a query that would pay
// a full scan invests that same O(n) in materialising its first
// predicate's index instead.
func (s *Snapshot) plan(q Query, strat strategy, sc *queryScratch) queryPlan {
	n := s.seq.len()
	pln := queryPlan{hi: n}
	if len(q.preds) == 0 {
		return pln
	}

	if strat == strategyScan {
		sc.rest = append(sc.rest[:0], q.preds...)
		pln.rest = sc.rest
		return pln
	}

	if strat == strategyAuto || strat == strategyPrefix {
		// Prefix range (unusable under broad-match NULLs: a NULL tuple
		// may match a prefix predicate yet sort outside the value's
		// range).
		if !s.broadMatchNull {
			if pl := q.prefixLen(); pl > 0 {
				pln.pl = pl
				pln.lo, pln.hi = s.prefixRange(q, pl, sc)
			}
		}
		if strat == strategyPrefix {
			sc.rest = append(sc.rest[:0], q.preds[pln.pl:]...)
			pln.rest = sc.rest
			return pln
		}
	}

	// Split predicates into covered (posting lists available) and rest.
	// Forced postings materialises every predicate's index, exactly like
	// the pre-posting engine did.
	force := strat == strategyPostings
	covered := sc.preds[:0]
	rest := sc.rest[:0]
	bestIdx, bestSize := -1, -1
	for _, p := range q.preds {
		var pp predPostings
		var ok bool
		if force {
			pp, ok = s.materialisePP(p)
		} else {
			pp, ok = s.candidatePP(p)
		}
		if !ok {
			rest = append(rest, p)
			continue
		}
		if bestSize < 0 || pp.size < bestSize {
			bestIdx, bestSize = len(covered), pp.size
		}
		covered = append(covered, pp)
	}
	if !force && bestSize < 0 && pln.hi-pln.lo == n {
		// No materialised index and no prefix pruning: this query would
		// pay a full scan. Invest that same O(n) in building the first
		// predicate's index instead — every later query over the
		// attribute rides the posting lists, and the demand flag tells
		// the Store to maintain the index incrementally from the next
		// version on.
		if pp, ok := s.materialisePP(q.preds[0]); ok {
			covered = append(covered, pp)
			bestIdx, bestSize = 0, pp.size
			// rest currently holds every predicate in order; drop the
			// now-covered first one.
			copy(rest, rest[1:])
			rest = rest[:len(rest)-1]
		}
	}
	sc.preds, sc.rest = covered, rest

	if bestSize < 0 || (!force && bestSize >= pln.hi-pln.lo) {
		if force {
			// Ephemeral snapshot: no indexes to force — full scan.
			pln.lo, pln.hi, pln.pl = 0, n, 0
		}
		sc.rest = append(sc.rest[:0], q.preds[pln.pl:]...)
		pln.rest = sc.rest
		return pln
	}

	// Seed from the smallest candidate set; intersect the remaining
	// covered predicates in ascending size order (cheapest cut first).
	covered[0], covered[bestIdx] = covered[bestIdx], covered[0]
	for i := 2; i < len(covered); i++ {
		for j := i; j > 1 && covered[j].size < covered[j-1].size; j-- {
			covered[j], covered[j-1] = covered[j-1], covered[j]
		}
	}
	pln.postings = true
	pln.seed = covered[0]
	pln.others = covered[1:]
	pln.rest = rest
	return pln
}

// execPlan enumerates every tuple the plan's access path yields.
func (s *Snapshot) execPlan(pln *queryPlan, sc *queryScratch, fn func(*schema.Tuple)) {
	if pln.postings {
		s.execPostings(pln, sc, fn)
		return
	}
	broad := s.broadMatchNull
	for lo := pln.lo; lo < pln.hi; {
		ts := s.seq.run(lo, pln.hi)
		lo += len(ts)
		for _, t := range ts {
			if len(pln.rest) == 0 || matchesPreds(t, pln.rest, broad) {
				fn(t)
			}
		}
	}
}

// execPostings runs the intersection plan: for each container of the seed
// predicate's candidate lists (value list, then NULL list — disjoint),
// intersect against every other covered predicate and gather the
// surviving IDs back to tuples.
func (s *Snapshot) execPostings(pln *queryPlan, sc *queryScratch, fn func(*schema.Tuple)) {
	broad := s.broadMatchNull
	for _, part := range [2]*postingList{pln.seed.val, pln.seed.null} {
		if part == nil {
			continue
		}
		for ci := range part.cs {
			c := &part.cs[ci]
			if len(pln.others) == 0 {
				if len(pln.rest) == 0 {
					for _, t := range c.tuples {
						fn(t)
					}
					continue
				}
				for _, t := range c.tuples {
					if matchesPreds(t, pln.rest, broad) {
						fn(t)
					}
				}
				continue
			}
			surv := sc.runIntersect(c, pln.others)
			if len(surv) > 0 {
				c.gatherEmit(surv, pln.rest, broad, fn)
			}
		}
	}
}

// countPostings counts the plan's matches without gathering tuples —
// valid only when every predicate is covered (rest is empty).
func (s *Snapshot) countPostings(pln *queryPlan, sc *queryScratch) int {
	n := 0
	for _, part := range [2]*postingList{pln.seed.val, pln.seed.null} {
		if part == nil {
			continue
		}
		if len(pln.others) == 0 {
			n += part.n
			continue
		}
		for ci := range part.cs {
			n += len(sc.runIntersect(&part.cs[ci], pln.others))
		}
	}
	return n
}

// Answer computes the top-k result for q under the given scorer. It is
// the query engine behind Iface.Search; callers that bypass Iface (the
// serving benchmarks) must pass a deterministic scorer for reproducible
// results.
func (s *Snapshot) Answer(q Query, k int, scorer Scorer) Result {
	return s.answerWith(q, k, scorer, strategyAuto)
}

// answerWith is Answer with a forced access path (tests only): a drain
// of the top-k fold (scratch.go) over this one snapshot.
func (s *Snapshot) answerWith(q Query, k int, scorer Scorer, strat strategy) Result {
	sc := getScratch()
	defer putScratch(sc)
	s.fold(q, k, scorer, strat, sc)
	return sc.answer(k)
}

// fold offers every match of q in s to the scratch's top-k (capacity k)
// and counts it in sc.matches: one snapshot part of the top-k fold.
// With no residual predicates under an ID-pure scorer the plan ranks in
// the ID domain (idscore.go); otherwise each match is scored as a tuple.
func (s *Snapshot) fold(q Query, k int, scorer Scorer, strat strategy, sc *queryScratch) {
	pln := s.plan(q, strat, sc)
	switch {
	case len(pln.rest) > 0 || !scorerIsIDPure(scorer):
		s.execPlan(&pln, sc, func(t *schema.Tuple) {
			sc.matches++
			sc.topk.offer(t, scorer(t), k)
		})
	case pln.postings:
		s.scanIDScored(&pln, sc, k)
	default:
		s.rankRange(&pln, sc, k)
	}
}
