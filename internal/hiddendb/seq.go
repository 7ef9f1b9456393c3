package hiddendb

import (
	"fmt"
	"slices"
	"sort"

	"github.com/dynagg/dynagg/internal/schema"
)

// leafSize is the length a sorted run is cut into leaves at. A
// single-tuple write shifts one leaf and adds ±1 to the cumulative count
// of every leaf after it, O(log n + leaf + n/leaf), least near
// leaf = √n (≈ 410 at the paper's 170k tuples). After a publication a
// write also copies the leaf arrays and its leaf, and a batch copies
// every leaf it touches, so smaller leaves make batches cheaper and
// published writes dearer; docs/perf.md ("Tuple sequence") has the
// measurements behind 512. A leaf holds leafMin to leafMax tuples, so a
// run of single inserts splits a leaf at most every leafSize writes and
// a run of deletes joins two at most every leafSize/2.
const (
	leafSize = 512
	leafMin  = leafSize / 2
	leafMax  = 2 * leafSize
)

// tupleSeq holds a store's tuples in canonical (Vals, ID) order, cut into
// leaves of leafMin to leafMax tuples (a sole leaf may hold fewer; an
// empty sequence has no leaves) under a cumulative-count array, so that
// positions and key searches resolve in O(log n) and a write touches one
// leaf. A published snapshot holds a copy of the struct that shares the
// arrays and every leaf; the store copies the arrays before its next
// write and each leaf before it first writes it. Readers walk leaf
// sub-slices (run, or the leaves directly), never a tuple at a time.
type tupleSeq struct {
	leaves []leaf
	ends   []int // ends[i]: the number of tuples in leaves[:i+1]
	shared bool  // leaves and ends are held by a published snapshot
}

// leaf is one run of the order. owned reports that no snapshot holds ts,
// so the store may shift it in place; a snapshot never reads the flag.
type leaf struct {
	ts    []*schema.Tuple
	owned bool
}

// start returns the position of leaf i's first tuple; start(len(leaves))
// is the number of tuples.
func (q *tupleSeq) start(i int) int {
	if i == 0 {
		return 0
	}
	return q.ends[i-1]
}

// len returns the number of tuples.
func (q *tupleSeq) len() int { return q.start(len(q.ends)) }

// at returns the tuple at position pos.
func (q *tupleSeq) at(pos int) *schema.Tuple { return q.run(pos, pos+1)[0] }

// seek returns the leaf and offset of the first tuple t with
// (t.Vals[:len(key)], t.ID) ≥ (key, id): one binary search over the
// leaves' last tuples, one inside the leaf. For a tuple's values and ID
// that is the tuple's place in canonical order; for a prefix and ID 0 it
// is where the prefix's range starts. Past every tuple the result is the
// end of the last leaf, and (0, 0) when the sequence is empty.
func (q *tupleSeq) seek(key []uint16, id uint64) (i, off int) {
	below := func(t *schema.Tuple) bool {
		c := schema.CompareVals(t.Vals[:len(key)], key)
		return c < 0 || c == 0 && t.ID < id
	}
	if len(q.leaves) == 0 {
		return 0, 0
	}
	i = sort.Search(len(q.leaves)-1, func(i int) bool { ts := q.leaves[i].ts; return !below(ts[len(ts)-1]) })
	ts := q.leaves[i].ts
	return i, sort.Search(len(ts), func(j int) bool { return !below(ts[j]) })
}

// search returns the position seek finds.
func (q *tupleSeq) search(key []uint16, id uint64) int {
	i, off := q.seek(key, id)
	return q.start(i) + off
}

// run returns the part of positions [lo, hi) (lo < hi) that lies in lo's
// leaf. Readers walk a range a leaf at a time:
//
//	for lo < hi {
//		ts := q.run(lo, hi)
//		lo += len(ts)
//		for _, t := range ts { ... }
//	}
func (q *tupleSeq) run(lo, hi int) []*schema.Tuple {
	i, _ := slices.BinarySearch(q.ends, lo+1)
	ts := q.leaves[i].ts[lo-q.start(i):]
	return ts[:min(len(ts), hi-lo)]
}

// own makes the leaves and ends arrays the store's to write, copying
// them if a snapshot holds them; the copies own no leaf.
func (q *tupleSeq) own() {
	if !q.shared {
		return
	}
	q.leaves = slices.Clone(q.leaves)
	for i := range q.leaves {
		q.leaves[i].owned = false
	}
	q.ends = slices.Clone(q.ends)
	q.shared = false
}

// ownLeaf makes leaf i the store's to shift in place, copying it first
// if a snapshot may hold it.
func (q *tupleSeq) ownLeaf(i int) *leaf {
	q.own()
	l := &q.leaves[i]
	if !l.owned {
		l.ts, l.owned = slices.Clone(l.ts), true
	}
	return l
}

// insert adds t, which shares no key with a tuple present.
func (q *tupleSeq) insert(t *schema.Tuple) {
	if len(q.leaves) == 0 {
		q.splice(0, 0, []*schema.Tuple{t})
		return
	}
	i, off := q.seek(t.Vals, t.ID)
	l := q.ownLeaf(i)
	l.ts = append(l.ts, nil)
	copy(l.ts[off+1:], l.ts[off:])
	l.ts[off] = t
	q.rebalance(i, 1)
}

// delete removes t, which must be present.
func (q *tupleSeq) delete(t *schema.Tuple) {
	i, off := q.seek(t.Vals, t.ID)
	if i == len(q.leaves) || off == len(q.leaves[i].ts) || q.leaves[i].ts[off] != t {
		panic(fmt.Sprintf("hiddendb: index out of sync for tuple %d", t.ID))
	}
	l := q.ownLeaf(i)
	l.ts = slices.Delete(l.ts, off, off+1)
	q.rebalance(i, -1)
}

// rebalance adds d to the counts from leaf i on after a single write
// changed its length by d, then brings the leaf back in range: an
// overfull leaf splits in two, an underfull one joins a neighbour (and
// the pair splits again if overfull), and an empty sole leaf goes.
func (q *tupleSeq) rebalance(i, d int) {
	for j := i; j < len(q.ends); j++ {
		q.ends[j] += d
	}
	switch n := len(q.leaves[i].ts); {
	case n > leafMax:
		q.splice(i, i+1, q.leaves[i].ts)
	case n >= leafMin:
	case len(q.leaves) > 1:
		a := min(i, len(q.leaves)-2)
		q.splice(a, a+2, slices.Concat(q.leaves[a].ts, q.leaves[a+1].ts))
	case n == 0:
		q.splice(i, i+1, nil)
	}
}

// splice replaces leaves[a:b] with the sorted run cut into leaves.
func (q *tupleSeq) splice(a, b int, run []*schema.Tuple) {
	q.own()
	q.leaves = slices.Replace(q.leaves, a, b, cut(nil, run)...)
	q.recount(a)
}

// recount recomputes the counts from leaf a on.
func (q *tupleSeq) recount(a int) {
	n := q.start(a)
	q.ends = q.ends[:a]
	for _, l := range q.leaves[a:] {
		n += len(l.ts)
		q.ends = append(q.ends, n)
	}
}

// cut appends the sorted run to dst as max(1, len/leafSize) leaves of
// near-equal length, each a fresh copy the store owns: leafSize to
// leafMax−1 tuples apiece, or the whole run when it is shorter.
func cut(dst []leaf, run []*schema.Tuple) []leaf {
	if len(run) == 0 {
		return dst
	}
	p := max(1, len(run)/leafSize)
	for k := range p {
		dst = append(dst, leaf{ts: slices.Clone(run[k*len(run)/p : (k+1)*len(run)/p]), owned: true})
	}
	return dst
}

// applyBatch removes dels and adds ins, both sorted in canonical order;
// every tuple of dels is present, and no tuple of ins shares a key with
// one that stays. A change falls in the first leaf whose last tuple does
// not sort below it (the last leaf takes the rest). One walk over the
// leaves keeps every leaf no change falls in and merges each other leaf
// with its changes into a new one of exactly the merged length,
// locating each change by binary search in the leaf. A merged leaf past
// leafMax is cut in pieces, and one short of leafMin is carried into
// the next leaf's merge, or joins the previous leaf at the end. So a
// batch of c changes costs O(c·log leaf + n/leaf) comparisons and copies
// only the leaves it touches, and a load into an empty sequence cuts one
// sorted run.
func (q *tupleSeq) applyBatch(ins, dels []*schema.Tuple) {
	leaves := make([]leaf, 0, len(q.leaves)+len(ins)/leafSize+1)
	var carry []*schema.Tuple
	for i, l := range q.leaves {
		ni, nd := len(ins), len(dels)
		if i < len(q.leaves)-1 {
			top := l.ts[len(l.ts)-1]
			ni, nd = upTo(ins, top), upTo(dels, top)
		}
		if ni == 0 && nd == 0 && len(carry) == 0 {
			leaves = append(leaves, leaf{ts: l.ts, owned: l.owned && !q.shared})
			continue
		}
		run := append(make([]*schema.Tuple, 0, len(carry)+len(l.ts)+ni-nd), carry...)
		run = mergeLeaf(run, l.ts, ins[:ni], dels[:nd])
		ins, dels, carry = ins[ni:], dels[nd:], nil
		switch {
		case len(run) < leafMin:
			carry = run
		case len(run) <= leafMax:
			leaves = append(leaves, leaf{ts: run, owned: true})
		default:
			leaves = cut(leaves, run)
		}
	}
	if len(q.leaves) == 0 {
		carry = ins // the whole load
	} else if n := len(leaves); len(carry) > 0 && n > 0 {
		carry = slices.Concat(leaves[n-1].ts, carry)
		leaves = leaves[:n-1]
	}
	*q = tupleSeq{leaves: cut(leaves, carry)}
	q.recount(0)
}

// upTo returns how many of the sorted tuples ts sort at or below top.
func upTo(ts []*schema.Tuple, top *schema.Tuple) int {
	n := 0
	for n < len(ts) && !less(top, ts[n]) {
		n++
	}
	return n
}

// mergeLeaf appends to run the tuples of ts minus dels plus ins, in
// order, binary-searching ts for each change from the previous one's
// position and moving the runs between changes with one copy each.
func mergeLeaf(run, ts, ins, dels []*schema.Tuple) []*schema.Tuple {
	p := 0 // ts[:p] is merged
	for len(ins) > 0 || len(dels) > 0 {
		del := len(dels) > 0 && (len(ins) == 0 || !less(ins[0], dels[0]))
		t := ins
		if del {
			t = dels
		}
		at := p + sort.Search(len(ts)-p, func(j int) bool { return !less(ts[p+j], t[0]) })
		run, p = append(run, ts[p:at]...), at
		if !del {
			run, ins = append(run, ins[0]), ins[1:]
		} else if at == len(ts) || ts[at] != dels[0] {
			panic(fmt.Sprintf("hiddendb: index out of sync for tuple %d", dels[0].ID))
		} else {
			p, dels = at+1, dels[1:]
		}
	}
	return append(run, ts[p:]...)
}
