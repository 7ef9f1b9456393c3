package hiddendb

import (
	"cmp"
	"math/bits"
	"slices"

	"github.com/dynagg/dynagg/internal/schema"
)

// Roaring-style posting lists.
//
// A postingList is one (attribute, value)'s inverted index entry: the set
// of tuple IDs carrying that value, chunked into containers of 65536
// consecutive IDs (container key = id >> 16, so arbitrary 64-bit tuple IDs
// are supported). Each container keeps its member IDs' low 16 bits either
// as a sorted uint16 array (sparse) or as an 8KB bitmap with a per-word
// rank index (dense); the form is a pure function of the container's
// cardinality — more than arrayMaxEntries members ⇒ bitmap — so a list
// the store rebuilt after a batch and a from-scratch build agree container
// by container, which the index-equivalence tests check directly.
//
// Alongside the compact ID set every container carries a parallel payload
// slice of *schema.Tuple in ascending ID order. Intersection kernels
// (intersect.go) run entirely on the uint16 arrays and bitmap words —
// never touching tuple memory — and only the surviving IDs are gathered
// back to tuples through the payload slice (array form: position; bitmap
// form: rank).
//
// A posting list is a value: buildPostingList is the only code that
// writes one, and nothing changes it afterwards. The store installs a
// freshly built list for every value a batch touches (indexApplyBatch),
// so snapshots and the store share lists, and readers never observe a
// container mid-update.

const (
	// arrayMaxEntries is the density threshold: a container holding more
	// than this many IDs flips to bitmap form. 4096 × 2 bytes equals the
	// 8KB the bitmap itself costs, the classic roaring break-even.
	arrayMaxEntries = 4096
	// bitmapWords is the size of a bitmap container: 1024 × 64 = 65536
	// bits, one per possible low-16-bit ID.
	bitmapWords = 1024
)

// idBitmap is a bitmap container's bit store.
type idBitmap [bitmapWords]uint64

func (b *idBitmap) has(low uint16) bool { return b[low>>6]&(1<<(low&63)) != 0 }
func (b *idBitmap) set(low uint16)      { b[low>>6] |= 1 << (low & 63) }

// pcontainer is one 65536-ID chunk of a posting list.
type pcontainer struct {
	key    uint64          // id >> 16; the container covers [key<<16, key<<16 + 65535]
	ids    []uint16        // array form: sorted low 16 bits of the member IDs; nil in bitmap form
	bits   *idBitmap       // bitmap form; nil in array form
	ranks  []uint16        // bitmap form: ranks[w] = number of set bits in words [0, w)
	tuples []*schema.Tuple // payload, ascending tuple ID; parallel to ids (array) / bit rank (bitmap)
}

// count returns the container cardinality.
func (c *pcontainer) count() int { return len(c.tuples) }

// rankOf returns the payload index of the set bit low (bitmap form only;
// the bit must be set for the result to identify low's own payload slot).
func (c *pcontainer) rankOf(low uint16) int {
	w := low >> 6
	return int(c.ranks[w]) + bits.OnesCount64(c.bits[w]&(1<<(low&63)-1))
}

// buildRanks computes the per-word cumulative rank index of a bitmap.
func buildRanks(b *idBitmap) []uint16 {
	r := make([]uint16, bitmapWords)
	n := 0
	for w := 0; w < bitmapWords; w++ {
		r[w] = uint16(n)
		n += bits.OnesCount64(b[w])
	}
	return r
}

// makeContainer builds one container from payload tuples in ascending ID
// order, all sharing the given key. The payload slice is aliased, not
// copied: callers pass freshly built slices.
func makeContainer(key uint64, ts []*schema.Tuple) pcontainer {
	c := pcontainer{key: key, tuples: ts}
	if len(ts) > arrayMaxEntries {
		c.bits = &idBitmap{}
		for _, t := range ts {
			c.bits.set(uint16(t.ID))
		}
		c.ranks = buildRanks(c.bits)
	} else {
		c.ids = make([]uint16, len(ts))
		for i, t := range ts {
			c.ids[i] = uint16(t.ID)
		}
	}
	return c
}

// postingList is a sorted sequence of containers plus the total count.
type postingList struct {
	cs []pcontainer // ascending key
	n  int
}

// buildPostingList chunks tuples (ascending ID) into containers. The
// payload subslices alias ts; callers pass freshly built slices they will
// not mutate afterwards.
func buildPostingList(ts []*schema.Tuple) *postingList {
	pl := &postingList{n: len(ts)}
	for i := 0; i < len(ts); {
		key := ts[i].ID >> 16
		j := i + 1
		for j < len(ts) && ts[j].ID>>16 == key {
			j++
		}
		pl.cs = append(pl.cs, makeContainer(key, ts[i:j:j]))
		i = j
	}
	return pl
}

// container returns the container for key, or nil. Safe on a nil list.
func (pl *postingList) container(key uint64) *pcontainer {
	if pl == nil {
		return nil
	}
	lo, hi := 0, len(pl.cs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl.cs[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pl.cs) && pl.cs[lo].key == key {
		return &pl.cs[lo]
	}
	return nil
}

// size returns the total number of postings. Safe on a nil list.
func (pl *postingList) size() int {
	if pl == nil {
		return 0
	}
	return pl.n
}

// forEachTuple visits every payload tuple in ascending ID order.
func (pl *postingList) forEachTuple(fn func(*schema.Tuple)) {
	if pl == nil {
		return
	}
	for i := range pl.cs {
		for _, t := range pl.cs[i].tuples {
			fn(t)
		}
	}
}

// sortTuplesByID ID-sorts a freshly built payload slice (index builds
// group tuples in canonical store order first). IDs are unique, so the
// unstable typed sort is exact.
func sortTuplesByID(ts []*schema.Tuple) {
	slices.SortFunc(ts, func(a, b *schema.Tuple) int { return cmp.Compare(a.ID, b.ID) })
}
