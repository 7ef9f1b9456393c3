package hiddendb

import (
	"math/rand"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// The batch fixture: a tracking-sized store (the paper's Yahoo! Autos
// database holds ~170k tuples at the default experiment's start) over 16
// attributes of domain 4, so neighbouring tuples share about half their
// value vector and comparisons run deep, as on real categorical data.
const (
	applyBenchN      = 170_000
	applyBenchM      = 16
	applyBenchDomain = 4
)

// applyRound is one pre-generated churn batch.
type applyRound struct {
	ins  []*schema.Tuple
	dels []uint64
}

// applyBenchRounds builds the initial tuples and `rounds` consecutive
// batches of +ins / −delFrac·|D|, each valid against the store the
// previous batches left behind.
func applyBenchRounds(rounds, ins int, delFrac float64) ([]*schema.Tuple, []applyRound) {
	rng := rand.New(rand.NewSource(1))
	nextID := uint64(1)
	mk := func() *schema.Tuple {
		vals := make([]uint16, applyBenchM)
		for a := range vals {
			vals[a] = uint16(rng.Intn(applyBenchDomain))
		}
		t := &schema.Tuple{ID: nextID, Vals: vals}
		nextID++
		return t
	}
	initial := make([]*schema.Tuple, applyBenchN)
	live := make([]uint64, applyBenchN)
	for i := range initial {
		initial[i] = mk()
		live[i] = initial[i].ID
	}
	out := make([]applyRound, rounds)
	for r := range out {
		nd := int(delFrac * float64(len(live)))
		for j := 0; j < nd; j++ {
			x := rng.Intn(len(live))
			out[r].dels = append(out[r].dels, live[x])
			live[x] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for j := 0; j < ins; j++ {
			t := mk()
			out[r].ins = append(out[r].ins, t)
			live = append(live, t.ID)
		}
	}
	return initial, out
}

// loadApplyBench builds the store a run of batches starts from, with a
// published snapshot; indexed also builds every attribute's posting
// lists first, so each batch pays their maintenance.
func loadApplyBench(b *testing.B, sch *schema.Schema, initial []*schema.Tuple, indexed bool) *Store {
	st := NewStore(sch)
	if err := st.ApplyBatch(initial, nil); err != nil {
		b.Fatal(err)
	}
	if indexed {
		for a := range st.idx {
			st.idx[a] = buildAttrIndex(st.tuples, a)
		}
	}
	st.Snapshot()
	return st
}

// BenchmarkStoreApplyBatch applies one churn batch per op to a store of
// about applyBenchN tuples with a published snapshot, so every batch
// also pays the copy-on-write of the sorted slice:
//
//   - small: +300 / −0.1%, one round of the paper's default tracking
//     experiment (perfbench's track-autos);
//   - small-indexed: the same batches with every attribute's posting
//     lists maintained, the one path that writes them;
//   - large: +50% / −25%, the regime no tracking round reaches, where
//     the galloping merge must still not lose to a linear one.
//
// When the pre-generated batches run out the store is rebuilt with the
// timer stopped, so the store never drifts far from applyBenchN.
func BenchmarkStoreApplyBatch(b *testing.B) {
	cases := []struct {
		name    string
		rounds  int
		ins     int
		delFrac float64
		indexed bool
	}{
		{"small", 64, 300, 0.001, false},
		{"small-indexed", 64, 300, 0.001, true},
		{"large", 1, applyBenchN / 2, 0.25, false},
	}
	sch := schema.Uniform(applyBenchM, applyBenchDomain)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			initial, rounds := applyBenchRounds(c.rounds, c.ins, c.delFrac)
			var st *Store
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % len(rounds)
				if r == 0 {
					b.StopTimer()
					st = loadApplyBench(b, sch, initial, c.indexed)
					b.StartTimer()
				}
				if err := st.ApplyBatch(rounds[r].ins, rounds[r].dels); err != nil {
					b.Fatal(err)
				}
				st.Snapshot()
			}
		})
	}
}
