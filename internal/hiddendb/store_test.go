package hiddendb

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// newTestStore builds a store with n random tuples over m attributes of
// the given domain sizes.
func newTestStore(t testing.TB, seed int64, n int, domains []int) *Store {
	t.Helper()
	attrs := make([]schema.Attr, len(domains))
	for i, d := range domains {
		dom := make([]string, d)
		for v := range dom {
			dom[v] = string(rune('a' + v))
		}
		attrs[i] = schema.Attr{Name: "A" + string(rune('1'+i)), Domain: dom}
	}
	capacity := 1
	for _, d := range domains {
		capacity *= d
	}
	if n > capacity {
		t.Fatalf("newTestStore: %d distinct tuples requested but domain product is %d", n, capacity)
	}
	sch := schema.New(attrs)
	st := NewStore(sch)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	for st.Size() < n {
		vals := make([]uint16, len(domains))
		for i, d := range domains {
			vals[i] = uint16(rng.Intn(d))
		}
		tu := &schema.Tuple{ID: st.NextID(), Vals: vals, Aux: []float64{rng.Float64() * 100}}
		if seen[tu.Key()] {
			continue
		}
		seen[tu.Key()] = true
		if err := st.Insert(tu); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return st
}

// replaceTuple updates tuple id in place the way the store's callers do:
// clone it, mutate the clone, then apply one batch that deletes the old
// tuple and inserts the clone under the same ID.
func replaceTuple(t testing.TB, st *Store, id uint64, mutate func(*schema.Tuple)) {
	t.Helper()
	c := st.Get(id).Clone(id)
	mutate(c)
	if err := st.ApplyBatch([]*schema.Tuple{c}, []uint64{id}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreInsertDeleteBasics(t *testing.T) {
	st := newTestStore(t, 1, 50, []int{4, 4, 5})
	if st.Size() != 50 {
		t.Fatalf("Size = %d", st.Size())
	}
	v0 := st.Version()
	tu, err := st.Delete(1)
	if err != nil || tu == nil || tu.ID != 1 {
		t.Fatalf("Delete(1) = %v, %v", tu, err)
	}
	if st.Size() != 49 {
		t.Errorf("Size after delete = %d", st.Size())
	}
	if st.Version() == v0 {
		t.Error("Version did not advance on delete")
	}
	if _, err := st.Delete(1); err == nil {
		t.Error("double delete succeeded")
	}
	if st.Get(1) != nil {
		t.Error("Get returns deleted tuple")
	}
	if st.Get(2) == nil {
		t.Error("Get(2) = nil for live tuple")
	}
	// Re-insert the deleted tuple.
	if err := st.Insert(tu); err != nil {
		t.Fatalf("re-insert: %v", err)
	}
	if st.Size() != 50 {
		t.Errorf("Size after re-insert = %d", st.Size())
	}
}

func TestStoreInsertErrors(t *testing.T) {
	st := newTestStore(t, 2, 5, []int{3, 3})
	if err := st.Insert(&schema.Tuple{ID: 0, Vals: []uint16{0, 0}}); err == nil {
		t.Error("ID 0 accepted")
	}
	if err := st.Insert(&schema.Tuple{ID: 1, Vals: []uint16{0, 0}}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := st.Insert(&schema.Tuple{ID: 99, Vals: []uint16{0}}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := st.Insert(&schema.Tuple{ID: 99, Vals: []uint16{7, 0}}); err == nil {
		t.Error("out-of-domain tuple accepted")
	}
}

// sortedInvariant checks the canonical order invariant.
func sortedInvariant(t *testing.T, st *Store) {
	t.Helper()
	var prev *schema.Tuple
	st.ForEach(func(tu *schema.Tuple) {
		if prev != nil {
			c := schema.CompareVals(prev.Vals, tu.Vals)
			if c > 0 || (c == 0 && prev.ID >= tu.ID) {
				t.Fatalf("order violated: %v before %v", prev, tu)
			}
		}
		prev = tu
	})
}

func TestStoreStaysSorted(t *testing.T) {
	st := newTestStore(t, 3, 200, []int{5, 4, 4, 4})
	sortedInvariant(t, st)
	rng := rand.New(rand.NewSource(4))
	// Random interleaved inserts and deletes.
	for i := 0; i < 300; i++ {
		if rng.Intn(2) == 0 && st.Size() > 0 {
			ids := st.IDs()
			if _, err := st.Delete(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		} else {
			vals := []uint16{uint16(rng.Intn(4)), uint16(rng.Intn(4)), uint16(rng.Intn(4)), uint16(rng.Intn(4))}
			_ = st.Insert(&schema.Tuple{ID: st.NextID(), Vals: vals}) // dup vals fine here
		}
	}
	sortedInvariant(t, st)
}

func TestApplyBatchEquivalence(t *testing.T) {
	// Applying a batch must equal applying the operations one by one.
	mk := func() *Store { return newTestStore(t, 5, 100, []int{5, 5, 8}) }
	a, b := mk(), mk()

	rng := rand.New(rand.NewSource(6))
	ids := a.IDs()
	var deletes []uint64
	for _, id := range ids {
		if rng.Float64() < 0.2 {
			deletes = append(deletes, id)
		}
	}
	var inserts []*schema.Tuple
	for i := 0; i < 30; i++ {
		vals := []uint16{uint16(rng.Intn(5)), uint16(rng.Intn(5)), uint16(rng.Intn(8))}
		inserts = append(inserts, &schema.Tuple{ID: 10000 + uint64(i), Vals: vals})
	}

	if err := a.ApplyBatch(inserts, deletes); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	for _, id := range deletes {
		if _, err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range inserts {
		if err := b.Insert(tu.Clone(tu.ID)); err != nil {
			t.Fatal(err)
		}
	}

	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	var at, bt []*schema.Tuple
	a.ForEach(func(tu *schema.Tuple) { at = append(at, tu) })
	b.ForEach(func(tu *schema.Tuple) { bt = append(bt, tu) })
	for i := range at {
		if at[i].ID != bt[i].ID || schema.CompareVals(at[i].Vals, bt[i].Vals) != 0 {
			t.Fatalf("tuple %d differs: %v vs %v", i, at[i], bt[i])
		}
	}
	sortedInvariant(t, a)
}

func TestApplyBatchErrors(t *testing.T) {
	st := newTestStore(t, 7, 10, []int{4, 4})
	if err := st.ApplyBatch(nil, []uint64{9999}); err == nil {
		t.Error("unknown delete ID accepted")
	}
	if err := st.ApplyBatch(nil, []uint64{1, 1}); err == nil {
		t.Error("duplicate delete accepted")
	}
	if err := st.ApplyBatch([]*schema.Tuple{{ID: 1, Vals: []uint16{0, 0}}}, nil); err == nil {
		t.Error("insert with live duplicate ID accepted")
	}
	// Deleting and re-inserting the same ID in one batch is legal.
	old := st.Get(2)
	repl := old.Clone(2)
	if err := st.ApplyBatch([]*schema.Tuple{repl}, []uint64{2}); err != nil {
		t.Errorf("delete+reinsert same ID rejected: %v", err)
	}
	if st.Get(2) != repl {
		t.Error("replacement tuple not installed")
	}
}

// TestStoreRefusesNonFiniteAux: a tuple carrying a NaN or infinite aux
// value, which no JSON answer can carry, is refused by Insert and by
// ApplyBatch (alone, beside a valid insert, and as an in-place update),
// and the store is left unchanged: same size, same version.
func TestStoreRefusesNonFiniteAux(t *testing.T) {
	st := newTestStore(t, 9, 10, []int{4, 4})
	size, version, four := st.Size(), st.Version(), st.Get(4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tup := &schema.Tuple{ID: 9000, Vals: []uint16{1, 2}, Aux: []float64{1.5, bad}}
		if err := st.Insert(tup); err == nil {
			t.Errorf("Insert accepted aux %v", bad)
		}
		ok := &schema.Tuple{ID: 9001, Vals: []uint16{0, 3}, Aux: []float64{2}}
		if err := st.ApplyBatch([]*schema.Tuple{ok, tup}, nil); err == nil {
			t.Errorf("ApplyBatch accepted aux %v", bad)
		}
		upd := four.Clone(4)
		upd.Aux = []float64{bad}
		if err := st.ApplyBatch([]*schema.Tuple{upd}, []uint64{4}); err == nil {
			t.Errorf("ApplyBatch accepted an in-place update to aux %v", bad)
		}
		if st.Size() != size || st.Version() != version || st.Get(9001) != nil || st.Get(4) != four {
			t.Fatalf("after refusing aux %v: size %d version %d, want %d and %d, tuple 4 and no tuple 9001",
				bad, st.Size(), st.Version(), size, version)
		}
	}
	sortedInvariant(t, st)
}

func TestReplaceKeepsIDAndSnapshots(t *testing.T) {
	st := newTestStore(t, 8, 20, []int{4, 8})
	old := st.Get(3)
	oldAux := old.Aux[0]
	replaceTuple(t, st, 3, func(c *schema.Tuple) { c.Aux[0] = 42.5 })
	neu := st.Get(3)
	if neu.Aux[0] != 42.5 {
		t.Errorf("replacement Aux = %v", neu.Aux[0])
	}
	if old.Aux[0] != oldAux {
		t.Error("old snapshot mutated by the replacement")
	}
	if st.Size() != 20 {
		t.Errorf("Size changed: %d", st.Size())
	}
	if err := st.ApplyBatch([]*schema.Tuple{old.Clone(9999)}, []uint64{9999}); err == nil {
		t.Error("batch deleting an unknown ID accepted")
	}
	sortedInvariant(t, st)
}

func TestCountMatching(t *testing.T) {
	st := newTestStore(t, 9, 500, []int{4, 3, 5, 12})
	// Count by naive scan for a few queries and compare.
	queries := []Query{
		NewQuery(),
		NewQuery(Pred{Attr: 0, Val: 1}),
		NewQuery(Pred{Attr: 1, Val: 2}),
		NewQuery(Pred{Attr: 0, Val: 2}, Pred{Attr: 2, Val: 4}),
		NewQuery(Pred{Attr: 0, Val: 1}, Pred{Attr: 1, Val: 0}, Pred{Attr: 2, Val: 3}),
	}
	for _, q := range queries {
		naive := 0
		st.ForEach(func(tu *schema.Tuple) {
			if q.Matches(tu, false) {
				naive++
			}
		})
		if got := st.CountMatching(q); got != naive {
			t.Errorf("CountMatching(%v) = %d, naive %d", q, got, naive)
		}
	}
}

func TestQueryConstruction(t *testing.T) {
	q := NewQuery(Pred{Attr: 2, Val: 1}, Pred{Attr: 0, Val: 3})
	preds := q.Preds()
	if len(preds) != 2 || preds[0].Attr != 0 || preds[1].Attr != 2 {
		t.Errorf("preds not sorted: %+v", preds)
	}
	q2 := q.And(1, 7)
	if q2.Len() != 3 || q.Len() != 2 {
		t.Errorf("And mutated receiver or wrong len: %d %d", q2.Len(), q.Len())
	}
	if q.Key() == q2.Key() {
		t.Error("distinct queries share a key")
	}
	if NewQuery().String() != "SELECT * FROM D" {
		t.Errorf("root string = %q", NewQuery().String())
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate attr did not panic")
		}
	}()
	NewQuery(Pred{Attr: 0, Val: 1}, Pred{Attr: 0, Val: 2})
}

func TestPrefixLen(t *testing.T) {
	cases := []struct {
		q    Query
		want int
	}{
		{NewQuery(), 0},
		{NewQuery(Pred{Attr: 0, Val: 1}), 1},
		{NewQuery(Pred{Attr: 1, Val: 1}), 0},
		{NewQuery(Pred{Attr: 0, Val: 1}, Pred{Attr: 1, Val: 0}), 2},
		{NewQuery(Pred{Attr: 0, Val: 1}, Pred{Attr: 2, Val: 0}), 1},
		{NewQuery(Pred{Attr: 0, Val: schema.NullCode}), 0},
	}
	for _, c := range cases {
		if got := c.q.prefixLen(); got != c.want {
			t.Errorf("prefixLen(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	sch := schema.New([]schema.Attr{
		{Name: "a", Domain: []string{"x", "y"}},
		{Name: "b", Domain: []string{"p", "q"}, Nullable: true},
	})
	st := NewStore(sch)
	mustInsert := func(id uint64, vals []uint16) {
		t.Helper()
		if err := st.Insert(&schema.Tuple{ID: id, Vals: vals}); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert(1, []uint16{0, 0})
	mustInsert(2, []uint16{0, schema.NullCode})
	mustInsert(3, []uint16{1, 1})

	qB0 := NewQuery(Pred{Attr: 1, Val: 0})
	qNull := NewQuery(Pred{Attr: 1, Val: schema.NullCode})

	// Default policy: NULL matches only IS NULL.
	if got := st.CountMatching(qB0); got != 1 {
		t.Errorf("strict: count(b=0) = %d, want 1", got)
	}
	if got := st.CountMatching(qNull); got != 1 {
		t.Errorf("strict: count(b IS NULL) = %d, want 1", got)
	}

	// Broad match: NULL matches any predicate on its attribute.
	st.SetBroadMatchNull(true)
	if !st.BroadMatchNull() {
		t.Fatal("BroadMatchNull not set")
	}
	if got := st.CountMatching(qB0); got != 2 {
		t.Errorf("broad: count(b=0) = %d, want 2", got)
	}
}
