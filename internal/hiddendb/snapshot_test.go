package hiddendb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// newNullableTestStore builds a store whose last attribute is nullable,
// with a fraction of NULL values, so the equivalence tests cover both
// NULL policies.
func newNullableTestStore(t testing.TB, seed int64, n int, domains []int, nullFrac float64) *Store {
	t.Helper()
	attrs := make([]schema.Attr, len(domains))
	for i, d := range domains {
		dom := make([]string, d)
		for v := range dom {
			dom[v] = fmt.Sprintf("v%d", v)
		}
		attrs[i] = schema.Attr{Name: fmt.Sprintf("N%d", i+1), Domain: dom, Nullable: i == len(domains)-1}
	}
	sch := schema.New(attrs)
	st := NewStore(sch)
	rng := rand.New(rand.NewSource(seed))
	for st.Size() < n {
		vals := make([]uint16, len(domains))
		for i, d := range domains {
			vals[i] = uint16(rng.Intn(d))
		}
		if rng.Float64() < nullFrac {
			vals[len(domains)-1] = schema.NullCode
		}
		tu := &schema.Tuple{ID: st.NextID(), Vals: vals, Aux: []float64{rng.Float64() * 100}}
		if err := st.Insert(tu); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	return st
}

// resultSignature serialises a Result so equivalence means byte-identical.
func resultSignature(r Result) string {
	s := fmt.Sprintf("overflow=%v;", r.Overflow)
	for _, t := range r.Tuples {
		s += fmt.Sprintf("%d:%v:%v;", t.ID, t.Vals, t.Aux)
	}
	return s
}

// randomQueryOver builds a random query, sometimes with NULL predicates,
// sometimes prefix-shaped, sometimes arbitrary.
func randomQueryOver(rng *rand.Rand, sch *schema.Schema) Query {
	var preds []Pred
	for a := 0; a < sch.M(); a++ {
		if rng.Float64() >= 0.4 {
			continue
		}
		v := uint16(rng.Intn(sch.DomainSize(a)))
		if sch.Attr(a).Nullable && rng.Float64() < 0.25 {
			v = schema.NullCode
		}
		preds = append(preds, Pred{Attr: a, Val: v})
	}
	return NewQuery(preds...)
}

// TestSnapshotStrategyEquivalence is the seeded fuzz proof that the three
// access paths — full scan, prefix range, posting-list intersection —
// return byte-identical Results for random queries, scorers, k values and
// both BroadMatchNull settings, and that the cost-based auto strategy
// agrees with all of them (same seeds ⇒ same figures as the pre-refactor
// scan engine, whose behaviour strategyScan reproduces exactly).
func TestSnapshotStrategyEquivalence(t *testing.T) {
	for _, broad := range []bool{false, true} {
		for seed := int64(40); seed < 44; seed++ {
			st := newNullableTestStore(t, seed, 700, []int{6, 5, 4, 5}, 0.15)
			st.SetBroadMatchNull(broad)
			rng := rand.New(rand.NewSource(seed * 31))
			scorers := []struct {
				name string
				fn   Scorer
			}{{"hash", DefaultScorer}, {"aux", AuxScorer(0)}}
			for _, sc := range scorers {
				for qi := 0; qi < 60; qi++ {
					q := randomQueryOver(rng, st.Schema())
					k := []int{1, 7, 40}[qi%3]
					snap := st.Snapshot()
					want := resultSignature(naiveTopK(st, q, k, sc.fn))
					for _, strat := range []strategy{strategyScan, strategyPrefix, strategyPostings, strategyAuto} {
						got := resultSignature(snap.answerWith(q, k, sc.fn, strat))
						if got != want {
							t.Fatalf("broad=%v seed=%d scorer=%s q=%v k=%d strat=%d:\n got %s\nwant %s",
								broad, seed, sc.name, q, k, strat, got, want)
						}
					}
					// Counting must agree with the naive count too.
					naive := 0
					st.ForEach(func(tu *schema.Tuple) {
						if q.Matches(tu, broad) {
							naive++
						}
					})
					if got := snap.CountMatching(q); got != naive {
						t.Fatalf("broad=%v q=%v CountMatching=%d want %d", broad, q, got, naive)
					}
				}
			}
		}
	}
}

// TestAnswerAllocs pins the top-k fold's allocation contract: every
// drain — one snapshot, an epoch's shard snapshots, wire partials —
// allocates exactly the Result slice it returns, on every access path.
func TestAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// 20,000 tuples: the flat store's attribute-1 lists are bitmap
	// containers, the 4 shards' are arrays.
	flat, ss, _ := mirroredStores(t, 5, 20000, 4, []int{2, 3, 4, 5})
	snap, epoch := flat.Snapshot(), ss.Epoch()
	const k = 25
	cases := []struct {
		name   string
		q      Query
		scorer Scorer
	}{
		{"root", NewQuery(), DefaultScorer},
		{"prefix", NewQuery(Pred{Attr: 0, Val: 1}), DefaultScorer},
		{"postings", NewQuery(Pred{Attr: 1, Val: 2}), DefaultScorer},
		{"intersection", NewQuery(Pred{Attr: 1, Val: 2}, Pred{Attr: 3, Val: 4}), DefaultScorer},
		{"aux", NewQuery(Pred{Attr: 1, Val: 2}), AuxScorer(0)},
	}
	// Build every index the cases plan over, so no measured run does.
	for _, a := range []int{1, 3} {
		q := NewQuery(Pred{Attr: a, Val: 0})
		snap.Answer(q, k, DefaultScorer)
		epoch.Answer(q, k, DefaultScorer)
	}
	allocs := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 1 {
			t.Errorf("%s: %.1f allocs per answer, want exactly 1 (the Result slice)", name, n)
		}
	}
	for _, c := range cases {
		allocs("Snapshot.Answer/"+c.name, func() { snap.Answer(c.q, k, c.scorer) })
		allocs("Epoch.Answer/"+c.name, func() { epoch.Answer(c.q, k, c.scorer) })
	}
	partials := make([]Result, epoch.NumShards())
	for i, s := range epoch.snaps {
		partials[i] = s.Answer(cases[3].q, k, DefaultScorer)
	}
	allocs("MergePartials", func() { MergePartials(partials, k) })
}

// TestSnapshotIsolation proves a published snapshot is frozen: whatever
// churn hits the store afterwards — incremental inserts/deletes, batch
// merges, replaces — the old snapshot keeps answering exactly as at
// publication time, while fresh snapshots see the new state.
func TestSnapshotIsolation(t *testing.T) {
	st := newNullableTestStore(t, 50, 400, []int{5, 4, 6}, 0.1)
	f := NewIface(st, 15, nil)
	rng := rand.New(rand.NewSource(51))
	nextID := uint64(1 << 20)

	queries := make([]Query, 0, 20)
	for i := 0; i < 20; i++ {
		queries = append(queries, randomQueryOver(rng, st.Schema()))
	}
	// Touch non-prefix attributes so posting lists are live and the COW
	// machinery (not just the plain slice) is exercised.
	for _, q := range queries {
		if _, err := f.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	st.Snapshot() // promote demanded attributes into the store index

	for round := 0; round < 15; round++ {
		snap := st.Snapshot()
		frozen := make([]string, len(queries))
		for i, q := range queries {
			frozen[i] = resultSignature(snap.Answer(q, 15, DefaultScorer))
		}
		sizeAt := snap.Size()
		verAt := snap.Version()

		// Churn the store through every mutation path.
		switch round % 4 {
		case 0:
			for i := 0; i < 10; i++ {
				nextID++
				vals := []uint16{uint16(rng.Intn(5)), uint16(rng.Intn(4)), uint16(rng.Intn(6))}
				if err := st.Insert(&schema.Tuple{ID: nextID, Vals: vals, Aux: []float64{1}}); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			ids := st.IDs()
			for i := 0; i < 10; i++ {
				if _, err := st.Delete(ids[rng.Intn(len(ids))]); err != nil {
					i--
					continue
				}
			}
		case 2:
			var ins []*schema.Tuple
			for i := 0; i < 25; i++ {
				nextID++
				ins = append(ins, &schema.Tuple{
					ID:   nextID,
					Vals: []uint16{uint16(rng.Intn(5)), uint16(rng.Intn(4)), uint16(rng.Intn(6))},
					Aux:  []float64{2},
				})
			}
			ids := st.IDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			if err := st.ApplyBatch(ins, ids[:20]); err != nil {
				t.Fatal(err)
			}
		case 3:
			ids := st.IDs()
			for i := 0; i < 15; i++ {
				replaceTuple(t, st, ids[rng.Intn(len(ids))], func(c *schema.Tuple) {
					c.Vals[rng.Intn(3)] = uint16(rng.Intn(4))
				})
			}
		}

		// The old snapshot must be bit-for-bit frozen.
		if snap.Size() != sizeAt || snap.Version() != verAt {
			t.Fatalf("round %d: snapshot metadata changed", round)
		}
		for i, q := range queries {
			if got := resultSignature(snap.Answer(q, 15, DefaultScorer)); got != frozen[i] {
				t.Fatalf("round %d: frozen snapshot changed its answer for %v", round, q)
			}
		}
		// A fresh snapshot must agree with the naive reference on the
		// new state (this also re-verifies the incremental index).
		fresh := st.Snapshot()
		if fresh.Version() == verAt {
			t.Fatalf("round %d: version did not advance", round)
		}
		for _, q := range queries {
			got := resultSignature(fresh.Answer(q, 15, DefaultScorer))
			want := resultSignature(naiveTopK(st, q, 15, DefaultScorer))
			if got != want {
				t.Fatalf("round %d: fresh snapshot diverged for %v", round, q)
			}
		}
	}
}

// TestIncrementalIndexMatchesRebuild drives two stores through every
// mutation path and, after each step, compares the maintained posting
// lists against a from-scratch rebuild — list by list, container by
// container, ID by ID. The first takes random churn; the second walks one
// list across the array/bitmap threshold and back, and checks that the
// list each step replaced was left unchanged.
func TestIncrementalIndexMatchesRebuild(t *testing.T) {
	st := newTestStore(t, 60, 110, []int{5, 4, 6})
	f := NewIface(st, 10, nil)
	rng := rand.New(rand.NewSource(61))
	nextID := uint64(1 << 20)

	// Activate the index on every attribute. Attribute 0 is prefix-covered
	// and never demanded organically, so force it through the postings
	// strategy; the others activate via ordinary non-prefix queries.
	snap0 := st.Snapshot()
	for a := 0; a < 3; a++ {
		snap0.answerWith(NewQuery(Pred{Attr: a, Val: 0}), 10, DefaultScorer, strategyPostings)
	}
	if _, err := f.Search(NewQuery(Pred{Attr: 1, Val: 2})); err != nil {
		t.Fatal(err)
	}
	st.Insert(&schema.Tuple{ID: nextID, Vals: []uint16{0, 0, 0}}) // force promotion round-trip
	nextID++
	st.Snapshot()
	for a := 0; a < 3; a++ {
		if st.idx[a] == nil {
			t.Fatalf("attribute %d not promoted to the store index", a)
		}
	}

	checkIndex := func(st *Store, step string) {
		t.Helper()
		for a, ai := range st.idx {
			if ai == nil {
				continue
			}
			want := buildAttrIndex(&st.seq, a)
			if len(ai.lists) != len(want.lists) {
				t.Fatalf("step %s attr %d: %d lists, want %d", step, a, len(ai.lists), len(want.lists))
			}
			for v, wl := range want.lists {
				gl := ai.lists[v]
				if err := gl.validate(); err != nil {
					t.Fatalf("step %s attr %d val %d: invalid posting list: %v", step, a, v, err)
				}
				// Container form must match the rebuild exactly (form is a
				// pure function of container cardinality).
				if len(gl.cs) != len(wl.cs) {
					t.Fatalf("step %s attr %d val %d: %d containers, want %d",
						step, a, v, len(gl.cs), len(wl.cs))
				}
				for ci := range wl.cs {
					gc, wc := &gl.cs[ci], &wl.cs[ci]
					if gc.key != wc.key || gc.count() != wc.count() || (gc.bits != nil) != (wc.bits != nil) {
						t.Fatalf("step %s attr %d val %d container %d: key=%d n=%d bitmap=%v, want key=%d n=%d bitmap=%v",
							step, a, v, ci, gc.key, gc.count(), gc.bits != nil, wc.key, wc.count(), wc.bits != nil)
					}
				}
				got := gl.appendTuples(nil)
				exp := wl.appendTuples(nil)
				if len(got) != len(exp) {
					t.Fatalf("step %s attr %d val %d: len %d, want %d", step, a, v, len(got), len(exp))
				}
				for i := range exp {
					if got[i] != exp[i] {
						t.Fatalf("step %s attr %d val %d pos %d: tuple %d, want %d",
							step, a, v, i, got[i].ID, exp[i].ID)
					}
				}
			}
		}
	}

	for step := 0; step < 200; step++ {
		switch rng.Intn(4) {
		case 0:
			nextID++
			vals := []uint16{uint16(rng.Intn(5)), uint16(rng.Intn(4)), uint16(rng.Intn(6))}
			if err := st.Insert(&schema.Tuple{ID: nextID, Vals: vals}); err != nil {
				t.Fatal(err)
			}
		case 1:
			ids := st.IDs()
			if _, err := st.Delete(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		case 2:
			ids := st.IDs()
			replaceTuple(t, st, ids[rng.Intn(len(ids))], func(c *schema.Tuple) {
				c.Vals[rng.Intn(3)] = uint16(rng.Intn(4))
			})
		case 3:
			var ins []*schema.Tuple
			nIns := rng.Intn(12)
			for i := 0; i < nIns; i++ {
				nextID++
				ins = append(ins, &schema.Tuple{
					ID:   nextID,
					Vals: []uint16{uint16(rng.Intn(5)), uint16(rng.Intn(4)), uint16(rng.Intn(6))},
				})
			}
			ids := st.IDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			nDel := rng.Intn(12)
			if nDel > len(ids) {
				nDel = len(ids)
			}
			if err := st.ApplyBatch(ins, ids[:nDel]); err != nil {
				t.Fatal(err)
			}
		}
		// Publish a snapshot every few steps, so lists are installed both
		// into a map a snapshot shares and into one the store owns.
		if step%3 == 0 {
			st.Snapshot()
		}
		checkIndex(st, fmt.Sprint(step))
		sortedInvariant(t, st)
	}

	// Value 0 of attribute 1 starts six tuples short of arrayMaxEntries,
	// all in container 0 (IDs below 65,536). Single Inserts push it into
	// bitmap form, single Deletes bring it back, then one batch crosses
	// up and one down.
	st = NewStore(schema.Uniform(2, 4))
	n := arrayMaxEntries - 6
	var initial []*schema.Tuple
	for id := uint64(1); id <= 2*arrayMaxEntries; id++ {
		v := uint16(1 + id%3)
		if id <= uint64(n) {
			v = 0
		}
		initial = append(initial, &schema.Tuple{ID: id, Vals: []uint16{uint16(id % 4), v}})
	}
	if err := st.ApplyBatch(initial, nil); err != nil {
		t.Fatal(err)
	}
	for a := range st.idx {
		st.idx[a] = buildAttrIndex(&st.seq, a)
	}
	nextID = 2 * arrayMaxEntries
	fresh := func(v uint16) *schema.Tuple {
		nextID++
		return &schema.Tuple{ID: nextID, Vals: []uint16{uint16(nextID % 4), v}}
	}
	steps := 0
	step := func(name string, dn int, mutate func() error) {
		t.Helper()
		old := st.idx[1].lists[0]
		was := old.appendTuples(nil)
		if steps++; steps%2 == 0 {
			st.Snapshot()
		}
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		n += dn
		checkIndex(st, name)
		if pl := st.idx[1].lists[0]; pl.n != n || (pl.cs[0].bits != nil) != (n > arrayMaxEntries) {
			t.Fatalf("%s: value 0 holds %d tuples, bitmap %v; want %d", name, pl.n, pl.cs[0].bits != nil, n)
		}
		if err := old.validate(); err != nil || !slices.Equal(old.appendTuples(nil), was) {
			t.Fatalf("%s: the replaced list changed (%v)", name, err)
		}
	}
	for i := 0; i < 12; i++ {
		step(fmt.Sprintf("insert %d", i), 1, func() error { return st.Insert(fresh(0)) })
	}
	for id := uint64(1); id <= 12; id++ {
		step(fmt.Sprintf("delete %d", id), -1, func() error { _, err := st.Delete(id); return err })
	}
	step("batch up", 10, func() error {
		ins := []*schema.Tuple{fresh(2)}
		for i := 0; i < 10; i++ {
			ins = append(ins, fresh(0))
		}
		return st.ApplyBatch(ins, []uint64{arrayMaxEntries, arrayMaxEntries + 1})
	})
	step("batch down", -10, func() error {
		return st.ApplyBatch([]*schema.Tuple{fresh(1)}, []uint64{13, 14, 15, 16, 17, 18, 19, 20, 21, 22})
	})
}

// TestSnapshotLazyPromotion checks the demand cycle: a non-prefix query
// builds a lazy per-attribute index on the snapshot, and the next
// publication promotes that attribute into the store's incrementally
// maintained index.
func TestSnapshotLazyPromotion(t *testing.T) {
	st := newTestStore(t, 70, 75, []int{4, 4, 5})
	f := NewIface(st, 10, nil)
	for a := range st.idx {
		if st.idx[a] != nil {
			t.Fatalf("attribute %d indexed before any demand", a)
		}
	}
	// A prefix query must NOT create an index.
	if _, err := f.Search(NewQuery(Pred{Attr: 0, Val: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete(st.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	st.Snapshot()
	for a := range st.idx {
		if st.idx[a] != nil {
			t.Fatalf("attribute %d promoted by a prefix-only workload", a)
		}
	}
	// A non-prefix query demands attribute 1's index...
	if _, err := f.Search(NewQuery(Pred{Attr: 1, Val: 2})); err != nil {
		t.Fatal(err)
	}
	// ...which the next publication promotes.
	if _, err := st.Delete(st.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	st.Snapshot()
	if st.idx[1] == nil {
		t.Fatal("attribute 1 not promoted after non-prefix demand")
	}
	if st.idx[0] != nil || st.idx[2] != nil {
		t.Fatal("undemanded attributes promoted")
	}
}

// TestConcurrentSearchOneIface drives many goroutines through one Iface
// over a frozen round, then lets the (single) harness goroutine apply a
// batch between rounds — the serving pattern. Run under -race this
// enforces the new reader-concurrency contract end to end.
func TestConcurrentSearchOneIface(t *testing.T) {
	st := newNullableTestStore(t, 80, 500, []int{5, 4, 6}, 0.1)
	f := NewIface(st, 10, nil)
	nextID := uint64(1 << 21)

	for round := 0; round < 4; round++ {
		rng := rand.New(rand.NewSource(int64(81 + round)))
		queries := make([]Query, 32)
		for i := range queries {
			queries[i] = randomQueryOver(rng, st.Schema())
		}
		want := make([]string, len(queries))
		for i, q := range queries {
			want[i] = resultSignature(naiveTopK(st, q, 10, DefaultScorer))
		}
		done := make(chan error, 32)
		for g := 0; g < 32; g++ {
			go func(g int) {
				s := f.NewSession(100) // one session per goroutine
				for i := 0; i < 40; i++ {
					q := queries[(g+i)%len(queries)]
					r, err := s.Search(q)
					if err != nil {
						done <- err
						return
					}
					if got := resultSignature(r); got != want[(g+i)%len(queries)] {
						done <- fmt.Errorf("goroutine %d: wrong answer for %v", g, q)
						return
					}
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 32; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		// Round boundary: the harness mutates alone.
		var ins []*schema.Tuple
		for i := 0; i < 20; i++ {
			nextID++
			ins = append(ins, &schema.Tuple{
				ID:   nextID,
				Vals: []uint16{uint16(rng.Intn(5)), uint16(rng.Intn(4)), uint16(rng.Intn(6))},
			})
		}
		if err := st.ApplyBatch(ins, st.IDs()[:10]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryKeyCanonical pins the key encoding the cache depends on.
func TestQueryKeyCanonical(t *testing.T) {
	if got := NewQuery().Key(); got != "" {
		t.Errorf("root key = %q, want empty", got)
	}
	q := NewQuery(Pred{Attr: 3, Val: 12}, Pred{Attr: 0, Val: 7})
	if got, want := q.Key(), "0=7;3=12;"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	n := NewQuery(Pred{Attr: 1, Val: schema.NullCode})
	if got, want := n.Key(), "1=65535;"; got != want {
		t.Errorf("NULL key = %q, want %q", got, want)
	}
}
