package hiddendb

import (
	"cmp"
	"fmt"
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
// cardinality — more than arrayMaxEntries members ⇒ bitmap — so an
// incrementally maintained list and a from-scratch rebuild agree container
// by container, which the index-equivalence tests check directly.
//
// Alongside the compact ID set every container carries a parallel payload
// slice of *schema.Tuple in ascending ID order. Intersection kernels
// (intersect.go) run entirely on the uint16 arrays and bitmap words —
// never touching tuple memory — and only the surviving IDs are gathered
// back to tuples through the payload slice (array form: position; bitmap
// form: rank).
//
// Copy-on-write: once a postingList is referenced by a published Snapshot
// it is immutable. The store clones the list before mutating it
// (postingList.clone marks every container shared), and each container is
// deep-copied at most once per clone, the first time a mutation touches it
// (ensureOwned). Readers therefore never observe a container mid-update.

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
func (b *idBitmap) unset(low uint16)    { b[low>>6] &^= 1 << (low & 63) }

// pcontainer is one 65536-ID chunk of a posting list.
type pcontainer struct {
	key    uint64          // id >> 16; the container covers [key<<16, key<<16 + 65535]
	shared bool            // referenced by a published snapshot: deep-copy before mutating
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

// findU16 returns the insertion position of x in the sorted slice a and
// whether x is present. Hand-rolled (no sort.Search closure) — it sits on
// the incremental-maintenance and gather hot paths.
func findU16(a []uint16, x uint16) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == x
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

// ensureOwned deep-copies the container's slices if a snapshot still
// references them. Called by every mutating container op.
func (c *pcontainer) ensureOwned() {
	if !c.shared {
		return
	}
	c.shared = false
	if c.bits != nil {
		nb := *c.bits
		c.bits = &nb
		c.ranks = append([]uint16(nil), c.ranks...)
	} else {
		c.ids = append([]uint16(nil), c.ids...)
	}
	c.tuples = append([]*schema.Tuple(nil), c.tuples...)
}

// toBitmap converts an array container that crossed the density threshold.
func (c *pcontainer) toBitmap() {
	c.bits = &idBitmap{}
	for _, low := range c.ids {
		c.bits.set(low)
	}
	c.ranks = buildRanks(c.bits)
	c.ids = nil
}

// toArray converts a bitmap container that dropped back under the
// threshold. The payload is already in ID order, so the array is a
// projection of it.
func (c *pcontainer) toArray() {
	ids := make([]uint16, len(c.tuples))
	for i, t := range c.tuples {
		ids[i] = uint16(t.ID)
	}
	c.ids, c.bits, c.ranks = ids, nil, nil
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

// findContainer returns the insertion position of key and whether a
// container with that key exists.
func (pl *postingList) findContainer(key uint64) (int, bool) {
	lo, hi := 0, len(pl.cs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pl.cs[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(pl.cs) && pl.cs[lo].key == key
}

// container returns the container for key, or nil. Safe on a nil list.
func (pl *postingList) container(key uint64) *pcontainer {
	if pl == nil {
		return nil
	}
	if i, ok := pl.findContainer(key); ok {
		return &pl.cs[i]
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

// appendTuples appends every payload tuple in ascending ID order to dst.
func (pl *postingList) appendTuples(dst []*schema.Tuple) []*schema.Tuple {
	if pl == nil {
		return dst
	}
	for i := range pl.cs {
		dst = append(dst, pl.cs[i].tuples...)
	}
	return dst
}

// clone returns a mutable copy sharing every container with the original
// (containers are marked shared and deep-copied lazily on first touch).
func (pl *postingList) clone() *postingList {
	cs := make([]pcontainer, len(pl.cs))
	copy(cs, pl.cs)
	for i := range cs {
		cs[i].shared = true
	}
	return &postingList{cs: cs, n: pl.n}
}

// insert adds one tuple (its ID must not be present). The list must be
// store-owned (see clone); container-level copy-on-write is handled here.
func (pl *postingList) insert(t *schema.Tuple) {
	key := t.ID >> 16
	low := uint16(t.ID)
	i, ok := pl.findContainer(key)
	if !ok {
		pl.cs = append(pl.cs, pcontainer{})
		copy(pl.cs[i+1:], pl.cs[i:])
		pl.cs[i] = makeContainer(key, []*schema.Tuple{t})
		pl.n++
		return
	}
	c := &pl.cs[i]
	c.ensureOwned()
	if c.bits != nil {
		r := c.rankOf(low)
		c.bits.set(low)
		c.tuples = append(c.tuples, nil)
		copy(c.tuples[r+1:], c.tuples[r:])
		c.tuples[r] = t
		for w := int(low>>6) + 1; w < bitmapWords; w++ {
			c.ranks[w]++
		}
	} else {
		pos, _ := findU16(c.ids, low)
		c.ids = append(c.ids, 0)
		copy(c.ids[pos+1:], c.ids[pos:])
		c.ids[pos] = low
		c.tuples = append(c.tuples, nil)
		copy(c.tuples[pos+1:], c.tuples[pos:])
		c.tuples[pos] = t
		if len(c.tuples) > arrayMaxEntries {
			c.toBitmap()
		}
	}
	pl.n++
}

// remove deletes the tuple with the given ID (which must be present).
func (pl *postingList) remove(id uint64) {
	i, ok := pl.findContainer(id >> 16)
	if !ok {
		panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
	}
	c := &pl.cs[i]
	low := uint16(id)
	if c.count() == 1 {
		if c.bits != nil && !c.bits.has(low) || c.bits == nil && (len(c.ids) == 0 || c.ids[0] != low) {
			panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
		}
		pl.cs = append(pl.cs[:i], pl.cs[i+1:]...)
		pl.n--
		return
	}
	c.ensureOwned()
	if c.bits != nil {
		if !c.bits.has(low) {
			panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
		}
		r := c.rankOf(low)
		c.bits.unset(low)
		c.tuples = append(c.tuples[:r], c.tuples[r+1:]...)
		for w := int(low>>6) + 1; w < bitmapWords; w++ {
			c.ranks[w]--
		}
		if len(c.tuples) <= arrayMaxEntries {
			c.toArray()
		}
	} else {
		pos, ok := findU16(c.ids, low)
		if !ok {
			panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
		}
		c.ids = append(c.ids[:pos], c.ids[pos+1:]...)
		c.tuples = append(c.tuples[:pos], c.tuples[pos+1:]...)
	}
	pl.n--
}

// swapTuple replaces the payload pointer for id in place (same ID, same
// value — a Replace that did not move the tuple between posting lists).
func (pl *postingList) swapTuple(id uint64, repl *schema.Tuple) {
	i, ok := pl.findContainer(id >> 16)
	if !ok {
		panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
	}
	c := &pl.cs[i]
	c.ensureOwned()
	low := uint16(id)
	if c.bits != nil {
		if !c.bits.has(low) {
			panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
		}
		c.tuples[c.rankOf(low)] = repl
		return
	}
	pos, ok := findU16(c.ids, low)
	if !ok {
		panic(fmt.Sprintf("hiddendb: posting list out of sync for tuple %d", id))
	}
	c.tuples[pos] = repl
}

// validate checks every structural invariant; tests run it after each
// mutation step of the incremental-vs-rebuild fuzz.
func (pl *postingList) validate() error {
	if pl == nil {
		return nil
	}
	total := 0
	for i := range pl.cs {
		c := &pl.cs[i]
		if i > 0 && pl.cs[i-1].key >= c.key {
			return fmt.Errorf("container keys out of order at %d", i)
		}
		if c.count() == 0 {
			return fmt.Errorf("empty container at key %d", c.key)
		}
		if (c.bits != nil) == (c.ids != nil) {
			return fmt.Errorf("container key %d has ambiguous form", c.key)
		}
		if c.bits != nil && c.count() <= arrayMaxEntries {
			return fmt.Errorf("container key %d: bitmap form at count %d", c.key, c.count())
		}
		if c.ids != nil && c.count() > arrayMaxEntries {
			return fmt.Errorf("container key %d: array form at count %d", c.key, c.count())
		}
		for j, t := range c.tuples {
			if t.ID>>16 != c.key {
				return fmt.Errorf("container key %d holds tuple %d", c.key, t.ID)
			}
			if j > 0 && c.tuples[j-1].ID >= t.ID {
				return fmt.Errorf("container key %d payload out of ID order at %d", c.key, j)
			}
			if c.ids != nil && c.ids[j] != uint16(t.ID) {
				return fmt.Errorf("container key %d: ids[%d]=%d but tuple ID %d", c.key, j, c.ids[j], t.ID)
			}
			if c.bits != nil && !c.bits.has(uint16(t.ID)) {
				return fmt.Errorf("container key %d: bit for tuple %d not set", c.key, t.ID)
			}
		}
		if c.bits != nil {
			if len(c.ids) != 0 {
				return fmt.Errorf("container key %d: bitmap form with ids", c.key)
			}
			if want := buildRanks(c.bits); len(c.ranks) != bitmapWords {
				return fmt.Errorf("container key %d: rank index length %d", c.key, len(c.ranks))
			} else {
				for w := range want {
					if c.ranks[w] != want[w] {
						return fmt.Errorf("container key %d: rank[%d]=%d want %d", c.key, w, c.ranks[w], want[w])
					}
				}
			}
			n := 0
			for _, w := range c.bits {
				n += bits.OnesCount64(w)
			}
			if n != c.count() {
				return fmt.Errorf("container key %d: %d bits set, %d tuples", c.key, n, c.count())
			}
		} else if len(c.ids) != c.count() {
			return fmt.Errorf("container key %d: %d ids, %d tuples", c.key, len(c.ids), c.count())
		}
		total += c.count()
	}
	if total != pl.n {
		return fmt.Errorf("list count %d, containers hold %d", pl.n, total)
	}
	return nil
}

// sortTuplesByID ID-sorts a freshly built payload slice (index builds
// group tuples in canonical store order first). IDs are unique, so the
// unstable typed sort is exact.
func sortTuplesByID(ts []*schema.Tuple) {
	slices.SortFunc(ts, func(a, b *schema.Tuple) int { return cmp.Compare(a.ID, b.ID) })
}
