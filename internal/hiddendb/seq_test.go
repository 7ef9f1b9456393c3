package hiddendb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// checkLeaves fails unless every leaf of q holds leafMin to leafMax
// tuples (a sole leaf 1 to leafMax) and ends counts them.
func checkLeaves(t *testing.T, q *tupleSeq, what string) {
	t.Helper()
	if len(q.ends) != len(q.leaves) {
		t.Fatalf("%s: %d counts for %d leaves", what, len(q.ends), len(q.leaves))
	}
	n := 0
	for i, l := range q.leaves {
		lo := leafMin
		if len(q.leaves) == 1 {
			lo = 1
		}
		if len(l.ts) < lo || len(l.ts) > leafMax {
			t.Fatalf("%s: leaf %d of %d holds %d tuples, want %d to %d", what, i, len(q.leaves), len(l.ts), lo, leafMax)
		}
		n += len(l.ts)
		if q.ends[i] != n {
			t.Fatalf("%s: ends[%d] = %d, want %d", what, i, q.ends[i], n)
		}
	}
}

// walk collects positions [lo, hi) of q a leaf at a time.
func walk(q *tupleSeq, lo, hi int) []*schema.Tuple {
	var out []*schema.Tuple
	for lo < hi {
		ts := q.run(lo, hi)
		lo += len(ts)
		out = append(out, ts...)
	}
	return out
}

// TestTupleSeqFuzz drives seeded random Insert, Delete and ApplyBatch
// calls through a store of several thousand tuples, so leaves split and
// join, and compares the store and every snapshot it published along the
// way with a flat sorted reference after each step: order, Size, At, IDs,
// ForEach, and the range, count and top-k answer of random prefixes. The
// steps cover single writes concentrated on a few leaves, batches
// smaller than a leaf and spanning many, batches that re-insert IDs they
// delete, batches larger than the store, and draining the store to empty
// and refilling it.
func TestTupleSeqFuzz(t *testing.T) {
	const domain = 10
	sch := schema.Uniform(3, domain)
	rng := rand.New(rand.NewSource(29))
	st := NewStore(sch)
	var ref []*schema.Tuple // the store's tuples, sorted
	type kept struct {
		s   *Snapshot
		ref []*schema.Tuple
	}
	var snaps []kept
	nextID := uint64(1)
	mk := func(v0 int) *schema.Tuple {
		if v0 < 0 {
			v0 = rng.Intn(domain)
		}
		tu := &schema.Tuple{ID: nextID, Vals: []uint16{uint16(v0), uint16(rng.Intn(domain)), uint16(rng.Intn(domain))}}
		nextID++
		return tu
	}
	refInsert := func(tu *schema.Tuple) {
		i, _ := slices.BinarySearchFunc(ref, tu, compareTuples)
		ref = slices.Insert(ref, i, tu)
	}
	refDelete := func(tu *schema.Tuple) {
		i, ok := slices.BinarySearchFunc(ref, tu, compareTuples)
		if !ok || ref[i] != tu {
			t.Fatalf("reference lost tuple %d", tu.ID)
		}
		ref = slices.Delete(ref, i, i+1)
	}
	batch := func(ins []*schema.Tuple, dels []uint64) {
		t.Helper()
		gone := make(map[uint64]bool, len(dels))
		for _, id := range dels {
			gone[id] = true
		}
		if err := st.ApplyBatch(ins, dels); err != nil {
			t.Fatal(err)
		}
		ref = slices.DeleteFunc(ref, func(tu *schema.Tuple) bool { return gone[tu.ID] })
		ref = append(ref, ins...)
		slices.SortFunc(ref, compareTuples)
	}
	insert := func(tu *schema.Tuple) {
		t.Helper()
		if err := st.Insert(tu); err != nil {
			t.Fatal(err)
		}
		refInsert(tu)
	}
	remove := func(tu *schema.Tuple) {
		t.Helper()
		if _, err := st.Delete(tu.ID); err != nil {
			t.Fatal(err)
		}
		refDelete(tu)
	}
	// randomIDs picks n distinct live IDs.
	randomIDs := func(n int) []uint64 {
		var ids []uint64
		for _, i := range rng.Perm(len(ref))[:min(n, len(ref))] {
			ids = append(ids, ref[i].ID)
		}
		return ids
	}
	checkPrefixes := func(what string, s *Snapshot, want []*schema.Tuple) {
		t.Helper()
		for j := 0; j < 8; j++ {
			prefix := make([]uint16, 1+rng.Intn(3))
			var preds []Pred
			for a := range prefix {
				prefix[a] = uint16(rng.Intn(domain))
				preds = append(preds, Pred{Attr: a, Val: prefix[a]})
			}
			q := NewQuery(preds...)
			cmpAt := func(i int) int { return schema.CompareVals(want[i].Vals[:len(prefix)], prefix) }
			lo := sort.Search(len(want), func(i int) bool { return cmpAt(i) >= 0 })
			hi := sort.Search(len(want), func(i int) bool { return cmpAt(i) > 0 })
			sc := getScratch()
			glo, ghi := s.prefixRange(q, len(preds), sc)
			putScratch(sc)
			if glo != lo || ghi != hi {
				t.Fatalf("%s: %v ranges [%d,%d), want [%d,%d)", what, q, glo, ghi, lo, hi)
			}
			if n, ok := s.rangeCount(q); !ok || n != hi-lo {
				t.Fatalf("%s: %v range count %d (ok %v), want %d", what, q, n, ok, hi-lo)
			}
			if n := s.CountMatching(q); n != hi-lo {
				t.Fatalf("%s: %v counts %d, want %d", what, q, n, hi-lo)
			}
			if got := walk(&s.seq, lo, hi); !slices.Equal(got, want[lo:hi]) {
				t.Fatalf("%s: %v range holds %d tuples unlike the reference's %d", what, q, len(got), hi-lo)
			}
			// Ranked in the ID domain (rankRange) and as tuples (a scorer
			// the engine cannot recognise as ID-pure), the range must
			// answer as a full sort of the reference range does.
			exp := slices.Clone(want[lo:hi])
			slices.SortFunc(exp, func(a, b *schema.Tuple) int {
				if c := cmp.Compare(DefaultScorer(b), DefaultScorer(a)); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
			r := resultSignature(Result{Tuples: exp[:min(len(exp), 10)], Overflow: len(exp) > 10})
			generic := func(tu *schema.Tuple) float64 { return DefaultScorer(tu) }
			for _, scorer := range []Scorer{DefaultScorer, generic} {
				if got := resultSignature(s.Answer(q, 10, scorer)); got != r {
					t.Fatalf("%s: %v answers\n%s\nwant\n%s", what, q, got, r)
				}
			}
		}
	}
	checkSnap := func(what string, s *Snapshot, want []*schema.Tuple) {
		t.Helper()
		checkLeaves(t, &s.seq, what)
		if s.Size() != len(want) {
			t.Fatalf("%s: Size %d, want %d", what, s.Size(), len(want))
		}
		var got []*schema.Tuple
		s.ForEach(func(tu *schema.Tuple) { got = append(got, tu) })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ForEach differs from the reference", what)
		}
		for i, tu := range want {
			if s.seq.at(i) != tu {
				t.Fatalf("%s: at(%d) = %d, want %d", what, i, s.seq.at(i).ID, tu.ID)
			}
		}
		checkPrefixes(what, s, want)
	}
	check := func(step int, op string) {
		t.Helper()
		what := fmt.Sprintf("step %d (%s)", step, op)
		checkLeaves(t, &st.seq, what)
		if st.Size() != len(ref) {
			t.Fatalf("%s: Size %d, want %d", what, st.Size(), len(ref))
		}
		var got []*schema.Tuple
		st.ForEach(func(tu *schema.Tuple) { got = append(got, tu) })
		if !slices.Equal(got, ref) {
			t.Fatalf("%s: ForEach differs from the reference", what)
		}
		ids := st.IDs()
		for i, tu := range ref {
			if st.At(i) != tu || ids[i] != tu.ID {
				t.Fatalf("%s: position %d holds %d (IDs %d), want %d", what, i, st.At(i).ID, ids[i], tu.ID)
			}
		}
		if len(ids) != len(ref) {
			t.Fatalf("%s: %d IDs, want %d", what, len(ids), len(ref))
		}
		// The store's own view, through the ephemeral snapshot's sharing.
		checkPrefixes(what, st.ephemeralLocked(), ref)
		for i, k := range snaps {
			checkSnap(fmt.Sprintf("%s, snapshot %d", what, i), k.s, k.ref)
		}
	}

	var load []*schema.Tuple
	for len(load) < 6000 {
		load = append(load, mk(-1))
	}
	batch(load, nil)
	check(0, "load")
	var splits, joins, drains int
	for step := 1; step <= 160; step++ {
		before := len(st.seq.leaves)
		op := ""
		switch r := rng.Intn(22); {
		case r < 5:
			op = "single inserts"
			hot := rng.Intn(domain)
			for j := rng.Intn(300); j >= 0; j-- {
				insert(mk(hot))
			}
			if len(st.seq.leaves) > before {
				splits++
			}
		case r < 10 && len(ref) > 0:
			op = "single deletes"
			p := rng.Intn(len(ref))
			for j := rng.Intn(300); j >= 0 && p < len(ref); j-- {
				remove(ref[p])
			}
			if len(st.seq.leaves) < before {
				joins++
			}
		case r < 13:
			op = "batch below a leaf"
			var ins []*schema.Tuple
			for j := rng.Intn(60); j > 0; j-- {
				ins = append(ins, mk(-1))
			}
			batch(ins, randomIDs(rng.Intn(60)))
		case r < 16:
			op = "batch over many leaves"
			var ins []*schema.Tuple
			for j := 500 + rng.Intn(2000); j > 0; j-- {
				ins = append(ins, mk(-1))
			}
			batch(ins, randomIDs(500+rng.Intn(2000)))
		case r < 18:
			op = "batch re-inserting IDs it deletes"
			dels := randomIDs(1 + rng.Intn(200))
			var ins []*schema.Tuple
			for i, id := range dels {
				c := st.Get(id).Clone(id)
				if i%2 == 1 {
					c.Vals[rng.Intn(3)] = uint16(rng.Intn(domain))
				}
				ins = append(ins, c)
			}
			for j := rng.Intn(50); j > 0; j-- {
				ins = append(ins, mk(-1))
			}
			batch(ins, dels)
		case r < 19:
			op = "batch larger than the store"
			var ins []*schema.Tuple
			for j := len(ref) + 1 + rng.Intn(3000); j > 0; j-- {
				ins = append(ins, mk(-1))
			}
			batch(ins, randomIDs(len(ref)/2))
		case r < 21:
			// Writes into leaves a batch kept after a publication must
			// copy them first: the kept snapshot holds them.
			op = "publish, batch below a leaf, single writes"
			snaps = append(snaps, kept{s: st.Snapshot(), ref: slices.Clone(ref)})
			batch([]*schema.Tuple{mk(-1)}, randomIDs(1))
			for j := rng.Intn(20); j >= 0 && len(ref) > 0; j-- {
				remove(ref[rng.Intn(len(ref))])
				insert(mk(-1))
			}
		default:
			op = "drain and refill"
			drains++
			if rng.Intn(2) == 0 {
				batch(nil, randomIDs(len(ref)))
			} else {
				for len(ref) > 0 {
					remove(ref[rng.Intn(len(ref))])
				}
			}
			check(step, "drained")
			if len(st.seq.leaves) != 0 {
				t.Fatalf("step %d: an empty store keeps %d leaves", step, len(st.seq.leaves))
			}
			for j := 1 + rng.Intn(600); j > 0; j-- {
				insert(mk(-1))
			}
			var ins []*schema.Tuple
			for j := rng.Intn(6000); j > 0; j-- {
				ins = append(ins, mk(-1))
			}
			batch(ins, nil)
		}
		// A few single writes anywhere, so writes also follow batches and
		// publications on leaves a batch kept, cut or carried.
		for j := rng.Intn(4); j > 0 && len(ref) > 0; j-- {
			remove(ref[rng.Intn(len(ref))])
			insert(mk(-1))
		}
		if rng.Intn(4) == 0 {
			snaps = append(snaps, kept{s: st.Snapshot(), ref: slices.Clone(ref)})
		}
		if len(snaps) > 6 {
			snaps = snaps[len(snaps)-6:]
		}
		check(step, op)
	}
	if splits == 0 || joins == 0 || drains == 0 {
		t.Fatalf("%d single-insert steps split a leaf, %d single-delete steps joined two, %d drains: want each at least once", splits, joins, drains)
	}
}

// TestInsertDeleteAllocs pins the constant-update write path: inserting
// and deleting one tuple in a 170k-tuple store with no posting lists and
// no published snapshot shifts a leaf the store owns and allocates
// nothing.
func TestInsertDeleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	initial, rounds := applyBenchRounds(1, 1, 0)
	st := NewStore(schema.Uniform(applyBenchM, applyBenchDomain))
	if err := st.ApplyBatch(initial, nil); err != nil {
		t.Fatal(err)
	}
	x := rounds[0].ins[0]
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Insert(x); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Delete(x.ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Insert+Delete allocates %.2f times, want 0", allocs)
	}
}
