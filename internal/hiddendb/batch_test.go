package hiddendb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// The batch-test store: batchN tuples with distinct value vectors over
// three attributes of domain 8. Attribute 0 avoids 0 and 7, so a batch
// can insert before the first tuple and after the last. At batchK = 10
// the root and most single-predicate answers overflow.
const (
	batchN      = 120
	batchK      = 10
	batchDomain = 8
)

var batchSchema = schema.Uniform(3, batchDomain)

// batchTestStore builds the batch-test store (empty when n is 0). Before
// returning it answers a non-prefix query and republishes, so attribute
// 2's posting lists are maintained by the store and every batch folds
// into them too.
func batchTestStore(t *testing.T, n int) *Store {
	t.Helper()
	st := NewStore(batchSchema)
	rng := rand.New(rand.NewSource(11))
	seen := make(map[[3]uint16]bool)
	var load []*schema.Tuple
	for len(load) < n {
		v := [3]uint16{uint16(1 + rng.Intn(batchDomain-2)), uint16(rng.Intn(batchDomain)), uint16(rng.Intn(batchDomain))}
		if seen[v] {
			continue
		}
		seen[v] = true
		load = append(load, &schema.Tuple{ID: st.NextID(), Vals: v[:], Aux: []float64{rng.Float64()}})
	}
	if err := st.ApplyBatch(load, nil); err != nil {
		t.Fatal(err)
	}
	st.Snapshot().Answer(NewQuery(Pred{Attr: 2, Val: 0}), batchK, DefaultScorer)
	st.SetBroadMatchNull(false) // new version: the next publication promotes attribute 2
	st.Snapshot()
	if st.idx[2] == nil {
		t.Fatal("attribute 2 index not promoted")
	}
	return st
}

// batchQueries covers the root, prefix ranges at both depths and
// posting-list answers.
func batchQueries() []Query {
	qs := []Query{NewQuery()}
	for v := 0; v < batchDomain; v++ {
		qs = append(qs,
			NewQuery(Pred{Attr: 0, Val: uint16(v)}),
			NewQuery(Pred{Attr: 0, Val: uint16(v)}, Pred{Attr: 1, Val: uint16(v / 2)}),
			NewQuery(Pred{Attr: 2, Val: uint16(v)}),
			NewQuery(Pred{Attr: 1, Val: uint16(v)}, Pred{Attr: 2, Val: uint16(7 - v)}))
	}
	return qs
}

// batchAnswers records what s answers (and counts) for batchQueries.
func batchAnswers(s *Snapshot) []string {
	var out []string
	for _, q := range batchQueries() {
		out = append(out, fmt.Sprintf("%v n=%d %s", q, s.CountMatching(q), resultSignature(s.Answer(q, batchK, DefaultScorer))))
	}
	return out
}

// checkBatch applies one batch to a store made by build, and the same
// changes as single Delete and Insert calls to a second store made by
// build. The two must agree tuple for tuple, ID for ID and answer for
// answer, and the snapshot published before the batch must still answer
// exactly as it did.
func checkBatch(t *testing.T, build func() *Store, batch func(*Store) ([]*schema.Tuple, []uint64)) {
	t.Helper()
	a, b := build(), build()
	ins, dels := batch(a)
	before := a.Snapshot()
	want := batchAnswers(before)
	if before.Size() > batchK && !before.Answer(NewQuery(), batchK, DefaultScorer).Overflow {
		t.Fatal("root answer does not overflow k")
	}
	if err := a.ApplyBatch(ins, dels); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	for _, id := range dels {
		if _, err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range ins {
		if err := b.Insert(tu.Clone(tu.ID)); err != nil {
			t.Fatal(err)
		}
	}

	if a.Size() != b.Size() {
		t.Fatalf("batch left %d tuples, sequential %d", a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		x, y := a.At(i), b.At(i)
		if x.ID != y.ID || schema.CompareVals(x.Vals, y.Vals) != 0 {
			t.Fatalf("position %d: batch has %d%v, sequential %d%v", i, x.ID, x.Vals, y.ID, y.Vals)
		}
		if g := a.Get(x.ID); g != x {
			t.Fatalf("Get(%d) = %v, want the tuple at position %d", x.ID, g, i)
		}
	}
	for _, id := range dels {
		if (a.Get(id) == nil) != (b.Get(id) == nil) {
			t.Fatalf("Get(%d) disagrees after the batch", id)
		}
	}
	sortedInvariant(t, a)
	if got, exp := batchAnswers(a.Snapshot()), batchAnswers(b.Snapshot()); fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("answers after the batch differ from sequential:\n got %v\nwant %v", got, exp)
	}
	if got := batchAnswers(before); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("snapshot published before the batch changed:\n got %v\nwant %v", got, want)
	}
}

// fresh returns a new tuple with the given ID and values.
func fresh(id uint64, v0, v1, v2 uint16) *schema.Tuple {
	return &schema.Tuple{ID: id, Vals: []uint16{v0, v1, v2}, Aux: []float64{float64(id)}}
}

// TestApplyBatchEdgeCases pins ApplyBatch to sequential Insert/Delete on
// the shapes a galloping merge can get wrong: empty stores, empty
// results, changes at both ends, inserts at deleted positions, runs of
// adjacent inserts and batches as large as the store.
func TestApplyBatchEdgeCases(t *testing.T) {
	full := func() *Store { return batchTestStore(t, batchN) }
	cases := []struct {
		name  string
		build func() *Store
		batch func(st *Store) ([]*schema.Tuple, []uint64)
	}{
		{"load into empty store", func() *Store { return batchTestStore(t, 0) },
			func(*Store) ([]*schema.Tuple, []uint64) {
				var ins []*schema.Tuple
				for i := 0; i < batchN; i++ {
					ins = append(ins, fresh(uint64(1000+i), uint16(i%batchDomain), uint16(i/batchDomain%batchDomain), uint16(i/64)))
				}
				return ins, nil
			}},
		{"delete everything", full,
			func(st *Store) ([]*schema.Tuple, []uint64) {
				ids := st.IDs()
				rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				return nil, ids
			}},
		{"delete and reinsert one ID, same values", full,
			func(st *Store) ([]*schema.Tuple, []uint64) {
				x := st.At(batchN / 2)
				return []*schema.Tuple{x.Clone(x.ID)}, []uint64{x.ID}
			}},
		{"delete and reinsert one ID, different values", full,
			func(st *Store) ([]*schema.Tuple, []uint64) {
				x := st.At(batchN / 2)
				return []*schema.Tuple{fresh(x.ID, 0, 0, 0)}, []uint64{x.ID}
			}},
		{"inserts before the first tuple and after the last", full,
			func(*Store) ([]*schema.Tuple, []uint64) {
				return []*schema.Tuple{
					fresh(1000, 0, 0, 0), fresh(1001, 0, 3, 1), fresh(1002, batchDomain-1, 0, 0), fresh(1003, batchDomain-1, 7, 7),
				}, nil
			}},
		{"inserts exactly at deleted positions", full,
			func(st *Store) ([]*schema.Tuple, []uint64) {
				// Values are distinct, so a fresh ID with a deleted
				// tuple's values sorts exactly where that tuple was.
				var ins []*schema.Tuple
				var dels []uint64
				for p := 0; p < batchN; p += 7 {
					x := st.At(p)
					dels = append(dels, x.ID)
					ins = append(ins, fresh(uint64(1000+p), x.Vals[0], x.Vals[1], x.Vals[2]))
				}
				return ins, dels
			}},
		{"runs of adjacent inserts", full,
			func(st *Store) ([]*schema.Tuple, []uint64) {
				// Same values as an existing tuple and higher IDs: each run
				// lands between that tuple and its successor.
				var ins []*schema.Tuple
				for r, p := range []int{0, batchN / 3, batchN - 1} {
					x := st.At(p)
					for j := 0; j < 12; j++ {
						ins = append(ins, fresh(uint64(1000+100*r+j), x.Vals[0], x.Vals[1], x.Vals[2]))
					}
				}
				rand.New(rand.NewSource(2)).Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
				return ins, []uint64{st.At(batchN/3 + 1).ID}
			}},
		{"batch as large as the store", full,
			func(st *Store) ([]*schema.Tuple, []uint64) {
				rng := rand.New(rand.NewSource(3))
				var ins []*schema.Tuple
				var dels []uint64
				for p := 0; p < batchN; p += 2 {
					dels = append(dels, st.At(p).ID)
					ins = append(ins, fresh(uint64(1000+p), uint16(rng.Intn(batchDomain)), uint16(rng.Intn(batchDomain)), uint16(rng.Intn(batchDomain))))
				}
				return ins, dels
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkBatch(t, c.build, c.batch) })
	}
}

// TestApplyBatchRejectsRepeatedInsertID: a batch inserting one ID twice
// must be refused before anything changes, even when the two tuples
// carry different values and so do not sort next to each other.
func TestApplyBatchRejectsRepeatedInsertID(t *testing.T) {
	batch := func() []*schema.Tuple {
		return []*schema.Tuple{
			{ID: 500, Vals: []uint16{0, 0}}, {ID: 501, Vals: []uint16{1, 0}}, {ID: 500, Vals: []uint16{2, 0}},
		}
	}
	st := newTestStore(t, 7, 10, []int{4, 4})
	v := st.Version()
	if err := st.ApplyBatch(batch(), nil); err == nil {
		t.Error("Store.ApplyBatch accepted ID 500 twice")
	} else if st.Size() != 10 || st.Get(500) != nil || st.Get(501) != nil || st.Version() != v {
		t.Error("Store.ApplyBatch changed the store before refusing the batch")
	}

	ss := NewShardedStore(st.Schema(), 4)
	if err := ss.ApplyBatch(batch(), nil); err == nil {
		t.Error("ShardedStore accepted ID 500 twice")
	}
	ss.ForEach(func(tu *schema.Tuple) {
		if tu.ID == 500 {
			t.Fatal("ShardedStore holds ID 500 after refusing the batch")
		}
	})
}

// TestGallopTuples checks the galloping search against sort.Search from
// every valid start position, for keys present, absent and past the end.
func TestGallopTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 70; n += 3 {
		ts := make([]*schema.Tuple, n)
		for i := range ts {
			ts[i] = &schema.Tuple{ID: uint64(i + 1), Vals: []uint16{uint16(rng.Intn(20))}}
		}
		sort.Slice(ts, func(i, j int) bool { return less(ts[i], ts[j]) })
		for v := uint16(0); v <= 20; v++ {
			probe := &schema.Tuple{ID: uint64(rng.Intn(n + 2)), Vals: []uint16{v}}
			want := sort.Search(n, func(i int) bool { return !less(ts[i], probe) })
			for lo := 0; lo <= want; lo++ {
				if got := gallopTuples(ts, lo, probe); got != want {
					t.Fatalf("n=%d lo=%d probe=%v: gallopTuples = %d, want %d", n, lo, probe, got, want)
				}
			}
		}
	}
}

// TestRankRangeMatchesTuplePath ranks every window of a small store,
// of lengths around multiples of the gather width, through the
// ID-domain range path and through the generic per-tuple path (a
// closure scorer the engine cannot recognise as ID-pure). Results and
// match counts must be identical, whether or not the window overflows k
// and whether or not the top-k already holds another shard's winners.
func TestRankRangeMatchesTuplePath(t *testing.T) {
	st := newTestStore(t, 9, 3*idGather+5, []int{6, 6, 6})
	s := st.Snapshot()
	generic := func(t *schema.Tuple) float64 { return DefaultScorer(t) }
	n := s.Size()
	for _, k := range []int{1, 3, idGather, idGather + 1, 1000} {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				pln := queryPlan{lo: lo, hi: hi}
				fast, slow := getScratch(), getScratch()
				// Seed both top-k buffers with the same earlier winners,
				// as the scatter-gather path does across shards.
				for _, sc := range []*queryScratch{fast, slow} {
					sc.topk.reset()
					for _, tu := range s.tuples[:lo/2] {
						sc.topk.offer(tu, DefaultScorer(tu), k)
					}
				}
				s.rankRange(&pln, fast, k)
				s.execPlan(&pln, slow, func(tu *schema.Tuple) {
					slow.matches++
					slow.topk.offer(tu, generic(tu), k)
				})
				if fast.matches != hi-lo || slow.matches != hi-lo {
					t.Fatalf("k=%d [%d,%d): matches %d / %d, want %d", k, lo, hi, fast.matches, slow.matches, hi-lo)
				}
				got, want := resultSignature(Result{Tuples: fast.topk.drain(k)}), resultSignature(Result{Tuples: slow.topk.drain(k)})
				if got != want {
					t.Fatalf("k=%d [%d,%d):\n got %s\nwant %s", k, lo, hi, got, want)
				}
				putScratch(fast)
				putScratch(slow)
			}
		}
	}
}
