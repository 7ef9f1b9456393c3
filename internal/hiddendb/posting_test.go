package hiddendb

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

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

// validate checks every structural invariant; the incremental-vs-rebuild
// test runs it on every list the store holds after each step.
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

// ---------------------------------------------------------------------
// Kernel fuzz: every intersection kernel against a naive reference
// ---------------------------------------------------------------------

// refIntersect is the obviously correct intersector the kernels are
// fuzzed against: membership map, output sorted by construction (a is
// sorted and duplicate-free).
func refIntersect(a, b []uint16) []uint16 {
	in := make(map[uint16]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	out := []uint16{}
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func refUnion(a, b []uint16) []uint16 {
	in := make(map[uint16]bool, len(a)+len(b))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		in[x] = true
	}
	out := []uint16{}
	for x := 0; x < 1<<16; x++ {
		if in[uint16(x)] {
			out = append(out, uint16(x))
		}
	}
	return out
}

// randSet draws a sorted duplicate-free set of n low-16-bit IDs.
func randSet(rng *rand.Rand, n int) []uint16 {
	seen := make(map[uint16]bool, n)
	for len(seen) < n {
		seen[uint16(rng.Intn(1<<16))] = true
	}
	out := make([]uint16, 0, n)
	for x := 0; x < 1<<16; x++ {
		if seen[uint16(x)] {
			out = append(out, uint16(x))
		}
	}
	return out
}

// containerFor builds a container (with dummy payload) holding exactly
// the given low bits under key 0, letting cardinality pick the form.
func containerFor(lows []uint16) *pcontainer {
	ts := make([]*schema.Tuple, len(lows))
	for i, low := range lows {
		ts[i] = &schema.Tuple{ID: uint64(low)}
	}
	c := makeContainer(0, ts)
	return &c
}

func eqU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIntersectKernelsFuzz drives every kernel and form pairing —
// array∩array (galloping and linear), array-probe-into-bitmap,
// bitmap∩bitmap word-AND — through seeded random sets whose sizes are
// chosen to cross the array/bitmap threshold, plus the degenerate
// shapes: empty sets, singletons, identical sets (the duplicate-value
// case: two predicates sharing one posting list), and near-full
// containers.
func TestIntersectKernelsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Size menu straddles arrayMaxEntries so every (form, form) pair and
	// both intersectArrays paths (linear merge and ≥16× gallop) occur.
	sizes := []int{0, 1, 3, 40, 700, arrayMaxEntries - 1, arrayMaxEntries,
		arrayMaxEntries + 1, 3 * arrayMaxEntries, 40000}
	dst := make([]uint16, 0, 1<<16)
	for round := 0; round < 60; round++ {
		na := sizes[rng.Intn(len(sizes))]
		nb := sizes[rng.Intn(len(sizes))]
		a := randSet(rng, na)
		var b []uint16
		if round%7 == 0 {
			b = a // duplicate-value shape: same list on both sides
		} else {
			b = randSet(rng, nb)
		}
		want := refIntersect(a, b)

		ca, cb := containerFor(a), containerFor(b)
		if got := intersectContainers(ca, cb, dst[:0]); !eqU16(got, want) {
			t.Fatalf("round %d: intersectContainers(|a|=%d,|b|=%d) = %d IDs, want %d",
				round, na, len(b), len(got), len(want))
		}
		// The symmetric call must agree (kernel selection differs).
		if got := intersectContainers(cb, ca, dst[:0]); !eqU16(got, want) {
			t.Fatalf("round %d: intersectContainers swapped diverged", round)
		}
		// intersectIDs: survivor slice ∩ container, both forms of b.
		if got := intersectIDs(a, cb, dst[:0]); !eqU16(got, want) {
			t.Fatalf("round %d: intersectIDs diverged", round)
		}
		// Raw kernels on the forms we can force directly.
		if ca.bits == nil && cb.bits == nil {
			if got := intersectArrays(a, b, dst[:0]); !eqU16(got, want) {
				t.Fatalf("round %d: intersectArrays diverged", round)
			}
		}
		if cb.bits != nil {
			if got := probeBitmap(a, cb.bits, dst[:0]); !eqU16(got, want) {
				t.Fatalf("round %d: probeBitmap diverged", round)
			}
		}
		if ca.bits != nil && cb.bits != nil {
			if got := andBitmaps(ca.bits, cb.bits, dst[:0]); !eqU16(got, want) {
				t.Fatalf("round %d: andBitmaps diverged", round)
			}
		}
		// mergeUnion contract: disjoint sorted inputs. Make b disjoint.
		bOnly := dst[:0]
		for _, x := range b {
			if _, ok := slices.BinarySearch(a, x); !ok {
				bOnly = append(bOnly, x)
			}
		}
		if got := mergeUnion(a, bOnly, make([]uint16, 0, len(a)+len(bOnly))); !eqU16(got, refUnion(a, bOnly)) {
			t.Fatalf("round %d: mergeUnion diverged", round)
		}
	}
}

// TestGallopTo pins the galloping search primitive against linear scan.
func TestGallopTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		a := randSet(rng, rng.Intn(2000))
		from := 0
		if len(a) > 0 {
			from = rng.Intn(len(a) + 1)
		}
		x := uint16(rng.Intn(1 << 16))
		got := gallopTo(a, from, x)
		want := from
		for want < len(a) && a[want] < x {
			want++
		}
		if got != want {
			t.Fatalf("gallopTo(|a|=%d, from=%d, x=%d) = %d, want %d", len(a), from, x, got, want)
		}
	}
}

// ---------------------------------------------------------------------
// Scratch-pool race: 32 sessions sharing the pool (run under -race)
// ---------------------------------------------------------------------

func raceQueries(m, domain int) []Query {
	var qs []Query
	for v := 0; v < domain; v++ {
		qs = append(qs,
			NewQuery(Pred{Attr: m - 1, Val: uint16(v)}),
			NewQuery(Pred{Attr: 0, Val: uint16(v)}, Pred{Attr: m - 1, Val: uint16((v + 1) % domain)}),
			NewQuery(Pred{Attr: 1, Val: uint16(v)}, Pred{Attr: 2, Val: uint16(v)}),
		)
	}
	return qs
}

// TestScratchPoolRaceIface has 32 concurrent sessions hammer ONE Iface
// with mixed Search/SearchBatch/CountMatching traffic while a mutator
// churns the store. The per-query scratches all come from the shared
// sync.Pool; the race detector proves no scratch is ever visible to two
// goroutines at once (the pool-ownership contract in scratch.go).
func TestScratchPoolRaceIface(t *testing.T) {
	const m, domain = 4, 8
	st := NewStore(schema.Uniform(m, domain))
	rng := rand.New(rand.NewSource(5))
	batch := make([]*schema.Tuple, 30000)
	for i := range batch {
		vals := make([]uint16, m)
		for a := range vals {
			vals[a] = uint16(rng.Intn(domain))
		}
		batch[i] = &schema.Tuple{ID: uint64(i + 1), Vals: vals}
	}
	if err := st.ApplyBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	f := NewIface(st, 50, nil)
	qs := raceQueries(m, domain)

	stop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		id := uint64(len(batch) + 1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vals := make([]uint16, m)
			for a := range vals {
				vals[a] = uint16((i + a) % domain)
			}
			if err := st.Insert(&schema.Tuple{ID: id, Vals: vals}); err != nil {
				t.Error(err)
				return
			}
			if _, err := st.Delete(id); err != nil {
				t.Error(err)
				return
			}
			id++
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := f.NewSession(0)
			for i := 0; i < 60; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := s.Search(qs[(g*7+i)%len(qs)]); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.SearchBatch(qs[(g+i)%len(qs) : (g+i)%len(qs)+1]); err != nil {
						t.Error(err)
						return
					}
				default:
					st.CountMatching(qs[(g*3+i)%len(qs)])
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
}

// TestScratchPoolRaceSharded is the same contract on the scatter-gather
// path: 32 sessions against a 4-shard store (each query folds every
// shard through one borrowed scratch) while per-round churn publishes
// fresh epochs.
func TestScratchPoolRaceSharded(t *testing.T) {
	const m, domain = 4, 8
	ss := NewShardedStore(schema.Uniform(m, domain), 4)
	rng := rand.New(rand.NewSource(6))
	batch := make([]*schema.Tuple, 30000)
	for i := range batch {
		vals := make([]uint16, m)
		for a := range vals {
			vals[a] = uint16(rng.Intn(domain))
		}
		batch[i] = &schema.Tuple{ID: uint64(i + 1), Vals: vals}
	}
	if err := ss.ApplyBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	ss.AdvanceEpoch()
	f := NewShardedIface(ss, 50, nil)
	qs := raceQueries(m, domain)

	stop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		id := uint64(len(batch) + 1)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			vals := make([]uint16, m)
			for a := range vals {
				vals[a] = uint16((i + a) % domain)
			}
			if err := ss.Insert(&schema.Tuple{ID: id, Vals: vals}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ss.Delete(id); err != nil {
				t.Error(err)
				return
			}
			id++
			ss.AdvanceEpoch()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := f.NewSession(0)
			for i := 0; i < 40; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := s.Search(qs[(g*7+i)%len(qs)]); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.SearchBatch(qs[(g+i)%len(qs) : (g+i)%len(qs)+1]); err != nil {
						t.Error(err)
						return
					}
				default:
					ss.CountMatching(qs[(g*3+i)%len(qs)])
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
}
