package hiddendb

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dynagg/dynagg/internal/schema"
)

// naiveTopK is the reference implementation: full scan, full sort.
func naiveTopK(st *Store, q Query, k int, scorer Scorer) Result {
	var matches []*schema.Tuple
	st.ForEach(func(t *schema.Tuple) {
		if q.Matches(t, st.BroadMatchNull()) {
			matches = append(matches, t)
		}
	})
	sort.Slice(matches, func(i, j int) bool {
		si, sj := scorer(matches[i]), scorer(matches[j])
		if si != sj {
			return si > sj
		}
		return matches[i].ID < matches[j].ID
	})
	r := Result{Overflow: len(matches) > k}
	if len(matches) > k {
		matches = matches[:k]
	}
	r.Tuples = matches
	return r
}

func TestIfaceMatchesNaive(t *testing.T) {
	st := newTestStore(t, 11, 800, []int{5, 4, 3, 4, 8})
	for _, k := range []int{1, 3, 10, 100, 2000} {
		f := NewIface(st, k, nil)
		queries := []Query{
			NewQuery(),
			NewQuery(Pred{Attr: 0, Val: 2}),
			NewQuery(Pred{Attr: 0, Val: 2}, Pred{Attr: 1, Val: 1}),
			NewQuery(Pred{Attr: 3, Val: 0}),
			NewQuery(Pred{Attr: 1, Val: 3}, Pred{Attr: 2, Val: 2}),
			NewQuery(Pred{Attr: 0, Val: 4}, Pred{Attr: 1, Val: 3}, Pred{Attr: 2, Val: 2}, Pred{Attr: 3, Val: 3}),
		}
		for _, q := range queries {
			got, err := f.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveTopK(st, q, k, DefaultScorer)
			if got.Overflow != want.Overflow {
				t.Fatalf("k=%d q=%v overflow = %v, want %v", k, q, got.Overflow, want.Overflow)
			}
			if len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("k=%d q=%v len = %d, want %d", k, q, len(got.Tuples), len(want.Tuples))
			}
			for i := range got.Tuples {
				if got.Tuples[i].ID != want.Tuples[i].ID {
					t.Fatalf("k=%d q=%v rank %d: got ID %d want %d", k, q, i, got.Tuples[i].ID, want.Tuples[i].ID)
				}
			}
		}
	}
}

// Property: for random stores and random queries, the interface agrees
// with the naive reference on membership and overflow.
func TestIfacePropertyRandomQueries(t *testing.T) {
	st := newTestStore(t, 12, 400, []int{6, 5, 4, 6})
	f := NewIface(st, 25, nil)
	check := func(v0, v1, v2 uint8, mask uint8) bool {
		var preds []Pred
		if mask&1 != 0 {
			preds = append(preds, Pred{Attr: 0, Val: uint16(v0) % 6})
		}
		if mask&2 != 0 {
			preds = append(preds, Pred{Attr: 1, Val: uint16(v1) % 5})
		}
		if mask&4 != 0 {
			preds = append(preds, Pred{Attr: 2, Val: uint16(v2) % 4})
		}
		q := NewQuery(preds...)
		got, err := f.Search(q)
		if err != nil {
			return false
		}
		want := naiveTopK(st, q, 25, DefaultScorer)
		if got.Overflow != want.Overflow || len(got.Tuples) != len(want.Tuples) {
			return false
		}
		for i := range got.Tuples {
			if got.Tuples[i].ID != want.Tuples[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResultClassification(t *testing.T) {
	st := newTestStore(t, 13, 100, []int{3, 3, 3, 3, 4})
	f := NewIface(st, 5, nil)

	root, _ := f.Search(NewQuery())
	if !root.Overflow || root.Underflow() || root.Valid() {
		t.Errorf("root should overflow: %+v", root)
	}
	// A fully specified query matching nothing underflows. Find one.
	found := false
	for v := 0; v < 3 && !found; v++ {
		q := NewQuery(Pred{0, uint16(v)}, Pred{1, uint16(v)}, Pred{2, uint16(v)}, Pred{3, uint16(v)})
		if st.CountMatching(q) == 0 {
			r, _ := f.Search(q)
			if !r.Underflow() || r.Valid() || r.Overflow {
				t.Errorf("expected underflow, got %+v", r)
			}
			found = true
		}
	}
	if !found {
		t.Skip("no empty point query in this seed (unexpected)")
	}
}

func TestIfaceCacheTransparency(t *testing.T) {
	st := newTestStore(t, 14, 300, []int{4, 4, 4, 8})
	f := NewIface(st, 10, nil)
	q := NewQuery(Pred{Attr: 0, Val: 1})
	r1, _ := f.Search(q)
	r2, _ := f.Search(q) // cached
	if len(r1.Tuples) != len(r2.Tuples) || r1.Overflow != r2.Overflow {
		t.Fatal("cached result differs")
	}
	if f.TotalQueries() != 2 {
		t.Errorf("TotalQueries = %d, want 2 (cache must not hide accounting)", f.TotalQueries())
	}
	// Mutating the store invalidates the cache.
	before := st.CountMatching(q)
	ids := st.IDs()
	deleted := 0
	for _, id := range ids {
		tu := st.Get(id)
		if tu.Vals[0] == 1 {
			if _, err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	if deleted == 0 || before == 0 {
		t.Skip("seed produced no matching tuples")
	}
	r3, _ := f.Search(q)
	if !r3.Underflow() {
		t.Errorf("after deleting all matches, result = %+v", r3)
	}
}

func TestScorerDeterminesRanking(t *testing.T) {
	st := newTestStore(t, 15, 200, []int{4, 4, 16})
	f := NewIface(st, 3, AuxScorer(0))
	r, _ := f.Search(NewQuery())
	if len(r.Tuples) != 3 || !r.Overflow {
		t.Fatalf("unexpected result: %d tuples", len(r.Tuples))
	}
	for i := 1; i < len(r.Tuples); i++ {
		if r.Tuples[i-1].Aux[0] < r.Tuples[i].Aux[0] {
			t.Errorf("aux ranking violated at %d: %v < %v", i, r.Tuples[i-1].Aux[0], r.Tuples[i].Aux[0])
		}
	}
	// Missing aux index scores zero rather than panicking.
	if AuxScorer(5)(r.Tuples[0]) != 0 {
		t.Error("AuxScorer out-of-range should be 0")
	}
}

func TestNewIfacePanicsOnBadK(t *testing.T) {
	st := newTestStore(t, 16, 10, []int{3, 4})
	defer func() {
		if recover() == nil {
			t.Error("k=0 accepted")
		}
	}()
	NewIface(st, 0, nil)
}

func TestSessionBudget(t *testing.T) {
	st := newTestStore(t, 17, 100, []int{4, 4, 8})
	f := NewIface(st, 10, nil)
	s := f.NewSession(3)
	if s.Budget() != 3 || s.Remaining() != 3 || s.Used() != 0 {
		t.Fatalf("fresh session state wrong: %d %d %d", s.Budget(), s.Remaining(), s.Used())
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Search(NewQuery()); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if s.Remaining() != 0 {
		t.Errorf("Remaining = %d", s.Remaining())
	}
	if _, err := s.Search(NewQuery()); err != ErrBudgetExhausted {
		t.Errorf("over-budget err = %v, want ErrBudgetExhausted", err)
	}
	if s.Used() != 3 {
		t.Errorf("Used = %d after rejection, want 3", s.Used())
	}

	// G <= 0 answers nothing.
	for _, g := range []int{0, -1} {
		z := f.NewSession(g)
		if _, err := z.Search(NewQuery()); err != ErrBudgetExhausted {
			t.Errorf("G=%d: err = %v, want ErrBudgetExhausted", g, err)
		}
		if z.Remaining() != 0 || z.Used() != 0 || z.Budget() != 0 {
			t.Errorf("G=%d: Remaining %d, Used %d, Budget %d; want 0, 0, 0", g, z.Remaining(), z.Used(), z.Budget())
		}
	}
}

func TestSessionPreSearchHookDrivesIntraRoundUpdates(t *testing.T) {
	st := newTestStore(t, 18, 60, []int{4, 4, 8})
	f := NewIface(st, 100, nil)
	s := f.NewSession(10)
	// Delete one tuple before the 3rd query; results must reflect it.
	s.SetPreSearchHook(func(qi int) {
		if qi == 2 {
			ids := st.IDs()
			if _, err := st.Delete(ids[0]); err != nil {
				t.Fatal(err)
			}
		}
	})
	r1, _ := s.Search(NewQuery())
	_ = r1
	sizeBefore := st.Size()
	_, _ = s.Search(NewQuery())
	_, _ = s.Search(NewQuery()) // hook fires before this one
	if st.Size() != sizeBefore-1 {
		t.Errorf("hook did not run: size %d, want %d", st.Size(), sizeBefore-1)
	}
}

func TestAsSearcher(t *testing.T) {
	st := newTestStore(t, 19, 30, []int{3, 3, 4})
	f := NewIface(st, 5, nil)
	var s Searcher = f.AsSearcher()
	if s.K() != 5 || s.Schema().M() != 3 {
		t.Errorf("searcher view wrong: k=%d m=%d", s.K(), s.Schema().M())
	}
	if _, err := s.Search(NewQuery()); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowMonotoneAlongPaths(t *testing.T) {
	// The drill-down correctness argument needs Sel(child) ⊆ Sel(parent),
	// hence overflow monotone along any root-to-leaf path.
	st := newTestStore(t, 20, 500, []int{5, 4, 3, 10})
	f := NewIface(st, 8, nil)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		q := NewQuery()
		overflowSeen := true // root of path; once false must stay false
		for d := 0; d < 3; d++ {
			q = q.And(d, uint16(rng.Intn(st.Schema().DomainSize(d))))
			r, err := f.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if r.Overflow && !overflowSeen {
				t.Fatalf("overflow non-monotone at depth %d for %v", d+1, q)
			}
			overflowSeen = r.Overflow
		}
	}
}

func TestDefaultScorerDeterministic(t *testing.T) {
	a := &schema.Tuple{ID: 123}
	if DefaultScorer(a) != DefaultScorer(a) {
		t.Error("scorer not deterministic")
	}
	b := &schema.Tuple{ID: 124}
	if DefaultScorer(a) == DefaultScorer(b) {
		t.Error("adjacent IDs collide (astronomically unlikely)")
	}
}
