package hiddendb

import (
	"math/bits"

	"github.com/dynagg/dynagg/internal/schema"
)

// Multi-list intersection kernels.
//
// The postings answering path intersects the candidate sets of every
// covered predicate, container by container, entirely over low-16-bit ID
// material — sorted uint16 arrays and bitmap words — and touches tuple
// memory only for the survivors. Kernel selection is by container form
// pair:
//
//   - array ∩ array:  galloping (exponential + binary search) when the
//     larger side is ≥ gallopRatio× the smaller, linear merge otherwise;
//   - array ∩ bitmap: probe each array entry into the bitmap (O(|array|));
//   - bitmap ∩ bitmap: word-AND all 1024 words, extracting set bits with
//     TrailingZeros64.
//
// Under broad-match NULL semantics a predicate's candidate set is the
// disjoint union of its value list and the attribute's NULL list; each
// part is intersected separately and the two (disjoint, sorted) results
// are merged with mergeUnion.

// predPostings is one covered predicate's candidate posting lists: the
// list for its value plus, under broad-match NULL semantics, the
// attribute's NULL list. The two carry disjoint ID sets. Either may be
// nil; size is their combined posting count.
type predPostings struct {
	val  *postingList
	null *postingList
	size int
}

// gallopRatio is the size asymmetry at which array∩array switches from a
// linear merge to exponential search in the larger side.
const gallopRatio = 16

// gallopTo returns the first index ≥ from at which a[idx] ≥ x, using
// exponential probing followed by binary search within the last doubling.
func gallopTo(a []uint16, from int, x uint16) int {
	if from >= len(a) || a[from] >= x {
		return from
	}
	bound := 1
	for from+bound < len(a) && a[from+bound] < x {
		bound <<= 1
	}
	lo := from + bound/2 + 1
	hi := from + bound
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectArrays appends a ∩ b (both sorted, duplicate-free) to dst.
func intersectArrays(a, b, dst []uint16) []uint16 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, x := range a {
			j = gallopTo(b, j, x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, x)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// probeBitmap appends the members of sorted array a that are set in b.
func probeBitmap(a []uint16, b *idBitmap, dst []uint16) []uint16 {
	for _, x := range a {
		if b.has(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// andBitmaps appends the sorted set bits of a AND b. The word loop is
// unrolled 8 wide (SIMD-width on a 512-bit vector unit; the compiler
// keeps the 8 ANDs in registers and the block OR gives one branch per
// 512 bits instead of one per word): intersections are sparse in
// practice, so most 8-word blocks are all-zero and skip straight past
// the extraction loop. Extraction order is unchanged — output is the
// same sorted sequence a word-at-a-time loop produces, which
// TestBitmapANDUnrollEquivalence checks.
func andBitmaps(a, b *idBitmap, dst []uint16) []uint16 {
	for w := 0; w < bitmapWords; w += 8 {
		m0 := a[w] & b[w]
		m1 := a[w+1] & b[w+1]
		m2 := a[w+2] & b[w+2]
		m3 := a[w+3] & b[w+3]
		m4 := a[w+4] & b[w+4]
		m5 := a[w+5] & b[w+5]
		m6 := a[w+6] & b[w+6]
		m7 := a[w+7] & b[w+7]
		if m0|m1|m2|m3|m4|m5|m6|m7 == 0 {
			continue
		}
		// Occupied block: straight-line extraction keeps the eight masks
		// in registers (no spill, no per-word call).
		base := uint16(w << 6)
		for m0 != 0 {
			dst = append(dst, base|uint16(bits.TrailingZeros64(m0)))
			m0 &= m0 - 1
		}
		for m1 != 0 {
			dst = append(dst, (base+64)|uint16(bits.TrailingZeros64(m1)))
			m1 &= m1 - 1
		}
		for m2 != 0 {
			dst = append(dst, (base+128)|uint16(bits.TrailingZeros64(m2)))
			m2 &= m2 - 1
		}
		for m3 != 0 {
			dst = append(dst, (base+192)|uint16(bits.TrailingZeros64(m3)))
			m3 &= m3 - 1
		}
		for m4 != 0 {
			dst = append(dst, (base+256)|uint16(bits.TrailingZeros64(m4)))
			m4 &= m4 - 1
		}
		for m5 != 0 {
			dst = append(dst, (base+320)|uint16(bits.TrailingZeros64(m5)))
			m5 &= m5 - 1
		}
		for m6 != 0 {
			dst = append(dst, (base+384)|uint16(bits.TrailingZeros64(m6)))
			m6 &= m6 - 1
		}
		for m7 != 0 {
			dst = append(dst, (base+448)|uint16(bits.TrailingZeros64(m7)))
			m7 &= m7 - 1
		}
	}
	return dst
}

// mergeUnion appends the union of two disjoint sorted sets to dst.
func mergeUnion(a, b, dst []uint16) []uint16 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// intersectContainers appends c ∩ o, dispatching on the form pair.
func intersectContainers(c, o *pcontainer, dst []uint16) []uint16 {
	switch {
	case c.bits == nil && o.bits == nil:
		return intersectArrays(c.ids, o.ids, dst)
	case c.bits == nil:
		return probeBitmap(c.ids, o.bits, dst)
	case o.bits == nil:
		return probeBitmap(o.ids, c.bits, dst)
	default:
		return andBitmaps(c.bits, o.bits, dst)
	}
}

// intersectIDs appends cur ∩ o for an already-collected survivor set.
func intersectIDs(cur []uint16, o *pcontainer, dst []uint16) []uint16 {
	if o == nil || len(cur) == 0 {
		return dst
	}
	if o.bits != nil {
		return probeBitmap(cur, o.bits, dst)
	}
	return intersectArrays(cur, o.ids, dst)
}

// runIntersect computes the survivors of seed container c against every
// other covered predicate (sorted ascending by candidate-set size). The
// returned sorted low-16-bit IDs alias the scratch ping-pong buffers and
// are valid until the next runIntersect on the same scratch.
func (sc *queryScratch) runIntersect(c *pcontainer, others []predPostings) []uint16 {
	cur := sc.seedStep(c, others[0])
	for i := 1; i < len(others) && len(cur) > 0; i++ {
		cur = sc.idStep(cur, others[i], c.key)
	}
	return cur
}

// seedStep intersects the whole seed container with the first other
// predicate's candidate parts at the same key, leaving the result in
// bufA.
func (sc *queryScratch) seedStep(c *pcontainer, pp predPostings) []uint16 {
	pv := pp.val.container(c.key)
	pn := pp.null.container(c.key)
	switch {
	case pv == nil && pn == nil:
		sc.bufA = sc.bufA[:0]
	case pn == nil:
		sc.bufA = intersectContainers(c, pv, sc.bufA[:0])
	case pv == nil:
		sc.bufA = intersectContainers(c, pn, sc.bufA[:0])
	default:
		sc.bufC = intersectContainers(c, pv, sc.bufC[:0])
		sc.bufD = intersectContainers(c, pn, sc.bufD[:0])
		sc.bufA = mergeUnion(sc.bufC, sc.bufD, sc.bufA[:0])
	}
	return sc.bufA
}

// idStep narrows the running survivor set (always aliasing bufA) by one
// more predicate's candidate parts, writing into bufB and swapping the
// ping-pong buffers.
func (sc *queryScratch) idStep(cur []uint16, pp predPostings, key uint64) []uint16 {
	pv := pp.val.container(key)
	pn := pp.null.container(key)
	switch {
	case pv == nil && pn == nil:
		sc.bufB = sc.bufB[:0]
	case pn == nil:
		sc.bufB = intersectIDs(cur, pv, sc.bufB[:0])
	case pv == nil:
		sc.bufB = intersectIDs(cur, pn, sc.bufB[:0])
	default:
		sc.bufC = intersectIDs(cur, pv, sc.bufC[:0])
		sc.bufD = intersectIDs(cur, pn, sc.bufD[:0])
		sc.bufB = mergeUnion(sc.bufC, sc.bufD, sc.bufB[:0])
	}
	sc.bufA, sc.bufB = sc.bufB, sc.bufA
	return sc.bufA
}

// gatherEmit maps each surviving low-16-bit ID back to its payload tuple
// in the seed container and emits those passing the uncovered-predicate
// filter. Array seed: a galloping forward walk over c.ids (survivors are
// a sorted subset). Bitmap seed: rank lookup per survivor.
func (c *pcontainer) gatherEmit(surv []uint16, rest []Pred, broad bool, fn func(*schema.Tuple)) {
	if c.bits != nil {
		for _, low := range surv {
			t := c.tuples[c.rankOf(low)]
			if len(rest) == 0 || matchesPreds(t, rest, broad) {
				fn(t)
			}
		}
		return
	}
	j := 0
	for _, low := range surv {
		j = gallopTo(c.ids, j, low)
		t := c.tuples[j]
		j++
		if len(rest) == 0 || matchesPreds(t, rest, broad) {
			fn(t)
		}
	}
}
