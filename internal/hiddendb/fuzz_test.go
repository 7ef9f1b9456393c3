package hiddendb

import (
	"math/rand"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// A long randomized churn sequence: after every mutation batch, a random
// query must agree with the naive reference and the store's order
// invariant must hold. This exercises the interplay of incremental ops,
// batch merges, replaces and the per-version result cache.
func TestStoreChurnFuzz(t *testing.T) {
	st := newTestStore(t, 99, 600, []int{6, 5, 4, 7})
	f := NewIface(st, 20, nil)
	rng := rand.New(rand.NewSource(100))
	nextID := uint64(100000)

	randomVals := func() []uint16 {
		return []uint16{
			uint16(rng.Intn(6)), uint16(rng.Intn(5)),
			uint16(rng.Intn(4)), uint16(rng.Intn(7)),
		}
	}
	randomQuery := func() Query {
		var preds []Pred
		for a := 0; a < 4; a++ {
			if rng.Float64() < 0.35 {
				preds = append(preds, Pred{Attr: a, Val: uint16(rng.Intn(st.Schema().DomainSize(a)))})
			}
		}
		return NewQuery(preds...)
	}

	for step := 0; step < 120; step++ {
		switch rng.Intn(4) {
		case 0: // incremental inserts (duplicates of values allowed here)
			for i := 0; i < 5; i++ {
				nextID++
				_ = st.Insert(&schema.Tuple{ID: nextID, Vals: randomVals()})
			}
		case 1: // incremental deletes
			ids := st.IDs()
			for i := 0; i < 5 && len(ids) > 0; i++ {
				if _, err := st.Delete(ids[rng.Intn(len(ids))]); err == nil {
					ids = st.IDs()
				}
			}
		case 2: // batch churn
			var ins []*schema.Tuple
			for i := 0; i < 8; i++ {
				nextID++
				ins = append(ins, &schema.Tuple{ID: nextID, Vals: randomVals()})
			}
			ids := st.IDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			n := 6
			if n > len(ids) {
				n = len(ids)
			}
			if err := st.ApplyBatch(ins, ids[:n]); err != nil {
				t.Fatal(err)
			}
		case 3: // replace (aux mutation keeps position; value mutation moves)
			ids := st.IDs()
			if len(ids) > 0 {
				replaceTuple(t, st, ids[rng.Intn(len(ids))], func(c *schema.Tuple) {
					c.Vals[rng.Intn(4)] = uint16(rng.Intn(4))
				})
			}
		}

		// Invariants after every batch of mutations.
		sortedInvariant(t, st)
		q := randomQuery()
		got, err := f.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveTopK(st, q, 20, DefaultScorer)
		if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("step %d: q=%v result diverged from naive", step, q)
		}
		for i := range got.Tuples {
			if got.Tuples[i].ID != want.Tuples[i].ID {
				t.Fatalf("step %d: q=%v rank %d diverged", step, q, i)
			}
		}
		// Cache must serve an identical answer on the repeat.
		again, _ := f.Search(q)
		if len(again.Tuples) != len(got.Tuples) || again.Overflow != got.Overflow {
			t.Fatalf("step %d: cached answer differs", step)
		}
	}
}
