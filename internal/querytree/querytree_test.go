package querytree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
)

// buildStore creates a store of n distinct random tuples.
func buildStore(t testing.TB, seed int64, n int, domains []int) *hiddendb.Store {
	t.Helper()
	capacity := 1
	attrs := make([]schema.Attr, len(domains))
	for i, d := range domains {
		capacity *= d
		dom := make([]string, d)
		for v := range dom {
			dom[v] = string(rune('a' + v))
		}
		attrs[i] = schema.Attr{Name: attrName(i), Domain: dom}
	}
	if n > capacity/2 {
		t.Fatalf("buildStore: %d tuples over capacity %d is too dense", n, capacity)
	}
	st := hiddendb.NewStore(schema.New(attrs))
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	for st.Size() < n {
		vals := make([]uint16, len(domains))
		for i, d := range domains {
			vals[i] = uint16(rng.Intn(d))
		}
		tu := &schema.Tuple{ID: st.NextID(), Vals: vals}
		if seen[tu.Key()] {
			continue
		}
		seen[tu.Key()] = true
		if err := st.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func attrName(i int) string {
	return "A" + string(rune('1'+i))
}

func TestTreeGeometry(t *testing.T) {
	st := buildStore(t, 1, 50, []int{4, 3, 5, 2})
	tr := New(st.Schema())
	if tr.Depth() != 4 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	if got := tr.P(0); got != 1 {
		t.Errorf("P(0) = %v", got)
	}
	if got := tr.P(2); math.Abs(got-1.0/12) > 1e-15 {
		t.Errorf("P(2) = %v, want 1/12", got)
	}
	if got := tr.P(4); math.Abs(got-1.0/120) > 1e-15 {
		t.Errorf("P(4) = %v, want 1/120", got)
	}
	sig := Signature{1, 2, 4, 0}
	q := tr.Node(sig, 3)
	preds := q.Preds()
	if len(preds) != 3 || preds[0].Val != 1 || preds[2].Val != 4 {
		t.Errorf("Node depth 3 = %v", q)
	}
	if tr.Node(sig, 0).Len() != 0 {
		t.Error("root node should have no predicates")
	}
	if tr.LevelAttr(2) != 2 {
		t.Errorf("LevelAttr(2) = %d", tr.LevelAttr(2))
	}
}

func TestNodePanics(t *testing.T) {
	st := buildStore(t, 2, 20, []int{4, 4, 4})
	tr := New(st.Schema())
	for _, fn := range []func(){
		func() { tr.Node(Signature{0, 0, 0}, 4) },
		func() { tr.Node(Signature{0, 0}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRandomSignatureInDomain(t *testing.T) {
	st := buildStore(t, 3, 20, []int{4, 3, 5})
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		sig := tr.RandomSignature(rng)
		if len(sig) != 3 {
			t.Fatalf("signature length %d", len(sig))
		}
		for lvl, v := range sig {
			if int(v) >= st.Schema().DomainSize(lvl) {
				t.Fatalf("signature value %d out of domain at level %d", v, lvl)
			}
		}
	}
}

// sumP over all nodes of a level must be 1 (the p(q) used by the
// Horvitz-Thompson estimate is a probability distribution over each level).
func TestPSumsToOneAcrossLevel(t *testing.T) {
	st := buildStore(t, 5, 20, []int{4, 3, 5})
	tr := New(st.Schema())
	for depth := 0; depth <= 3; depth++ {
		nodes := 1
		for i := 0; i < depth; i++ {
			nodes *= st.Schema().DomainSize(i)
		}
		total := float64(nodes) * tr.P(depth)
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("depth %d: Σp = %v", depth, total)
		}
	}
}

func TestDrillFromRootFindsTopNonOverflowing(t *testing.T) {
	st := buildStore(t, 6, 2000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		sig := tr.RandomSignature(rng)
		o, err := DrillFromRoot(f.AsSearcher(), tr, sig)
		if err != nil {
			t.Fatal(err)
		}
		// The node must not overflow, and its parent (if any) must.
		if o.Result.Overflow {
			t.Fatal("outcome overflows")
		}
		if o.Cost != o.Depth+1 {
			t.Errorf("cost = %d, want depth+1 = %d", o.Cost, o.Depth+1)
		}
		if o.Depth > 0 {
			if got := st.CountMatching(tr.Node(sig, o.Depth-1)); got <= f.K() {
				t.Errorf("parent of top node does not overflow: count=%d", got)
			}
		}
		if got := st.CountMatching(tr.Node(sig, o.Depth)); got > f.K() {
			t.Errorf("top node overflows: count=%d", got)
		}
	}
}

// TestDrillsMarkProbes: both loops mark every node query as a probe.
// On a local Iface an overflowing probe is decided by its range length
// and never enters the answer cache, so a repeated walk hits the cache
// only at the non-overflowing node it returns.
func TestDrillsMarkProbes(t *testing.T) {
	st := buildStore(t, 31, 2000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	f.Snapshot()
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 20; i++ {
		sig := tr.RandomSignature(rng)
		if _, err := DrillFromRoot(f, tr, sig); err != nil {
			t.Fatal(err)
		}
		before := f.CacheStats()
		o, err := DrillFromRoot(f, tr, sig)
		if err != nil {
			t.Fatal(err)
		}
		got := f.CacheStats()
		if hits, misses := got.Hits-before.Hits, got.Misses-before.Misses; hits != 1 || misses != uint64(o.Depth) {
			t.Fatalf("repeated drill to depth %d: %d hits, %d misses; want 1 hit and %d misses", o.Depth, hits, misses, o.Depth)
		}
		before = got
		if _, err := UpdateDrill(f, tr, sig, o.Depth); err != nil {
			t.Fatal(err)
		}
		got = f.CacheStats()
		if hits, misses := got.Hits-before.Hits, got.Misses-before.Misses; hits != 1 || misses != 1 {
			t.Fatalf("update at depth %d: %d hits, %d misses; want 1 hit and 1 miss", o.Depth, hits, misses)
		}
	}
}

// The fundamental estimator property: E[ |q(r)| / p(q(r)) ] = |D| exactly,
// enumerated over all signatures (Theorem 3.1 specialised to COUNT(*)).
func TestDrillDownEstimateExactlyUnbiased(t *testing.T) {
	st := buildStore(t, 8, 200, []int{6, 5, 4, 4})
	f := hiddendb.NewIface(st, 7, nil)
	tr := New(st.Schema())

	var total float64
	leaves := 0
	var walk func(sig Signature, level int)
	walk = func(sig Signature, level int) {
		if level == tr.Depth() {
			leaves++
			o, err := DrillFromRoot(f.AsSearcher(), tr, sig)
			if err != nil {
				t.Fatal(err)
			}
			total += float64(len(o.Result.Tuples)) / o.P(tr)
			return
		}
		for v := 0; v < st.Schema().DomainSize(level); v++ {
			next := make(Signature, level+1)
			copy(next, sig)
			next[level] = uint16(v)
			walk(next, level+1)
		}
	}
	walk(Signature{}, 0)

	mean := total / float64(leaves)
	if math.Abs(mean-float64(st.Size())) > 1e-6*float64(st.Size()) {
		t.Errorf("exact expectation = %v, want %d", mean, st.Size())
	}
}

// UpdateDrill must land on the same node a fresh drill down would find,
// whatever the previous depth was and however the database changed.
func TestUpdateDrillAgreesWithFreshDrill(t *testing.T) {
	st := buildStore(t, 9, 3000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(10))

	type saved struct {
		sig   Signature
		depth int
	}
	var drills []saved
	for i := 0; i < 40; i++ {
		sig := tr.RandomSignature(rng)
		o, err := DrillFromRoot(f.AsSearcher(), tr, sig)
		if err != nil {
			t.Fatal(err)
		}
		drills = append(drills, saved{sig: sig, depth: o.Depth})
	}

	// Mutate heavily: delete 60% of tuples, insert 1000 new ones.
	ids := st.IDs()
	for _, id := range ids {
		if rng.Float64() < 0.6 {
			if _, err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := make(map[string]bool)
	st.ForEach(func(tu *schema.Tuple) { seen[tu.Key()] = true })
	for added := 0; added < 1000; {
		vals := make([]uint16, 5)
		for i := range vals {
			vals[i] = uint16(rng.Intn(st.Schema().DomainSize(i)))
		}
		tu := &schema.Tuple{ID: st.NextID(), Vals: vals}
		if seen[tu.Key()] {
			continue
		}
		seen[tu.Key()] = true
		if err := st.Insert(tu); err != nil {
			t.Fatal(err)
		}
		added++
	}

	for _, dr := range drills {
		up, err := UpdateDrill(f.AsSearcher(), tr, dr.sig, dr.depth)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := DrillFromRoot(f.AsSearcher(), tr, dr.sig)
		if err != nil {
			t.Fatal(err)
		}
		if up.Depth != fresh.Depth {
			t.Errorf("sig %v: update depth %d != fresh depth %d", dr.sig, up.Depth, fresh.Depth)
		}
		if len(up.Result.Tuples) != len(fresh.Result.Tuples) {
			t.Errorf("sig %v: result sizes differ %d vs %d", dr.sig, len(up.Result.Tuples), len(fresh.Result.Tuples))
		}
	}
}

// When the database does not change, an update costs exactly 2 queries
// (1 when the previous top was the root) — the §4.1 constant.
func TestUpdateDrillCostNoChange(t *testing.T) {
	st := buildStore(t, 11, 2000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 30; i++ {
		sig := tr.RandomSignature(rng)
		o, err := DrillFromRoot(f.AsSearcher(), tr, sig)
		if err != nil {
			t.Fatal(err)
		}
		up, err := UpdateDrill(f.AsSearcher(), tr, sig, o.Depth)
		if err != nil {
			t.Fatal(err)
		}
		wantCost := 2
		if o.Depth == 0 {
			wantCost = 1
		}
		if up.Cost != wantCost {
			t.Errorf("update cost = %d, want %d (depth %d)", up.Cost, wantCost, o.Depth)
		}
		if up.Depth != o.Depth {
			t.Errorf("depth changed with static database: %d -> %d", o.Depth, up.Depth)
		}
	}
}

func TestDrillBudgetExhaustion(t *testing.T) {
	st := buildStore(t, 13, 2000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(14))
	sig := tr.RandomSignature(rng)

	s := f.NewSession(1) // only the root fits
	o, err := DrillFromRoot(s, tr, sig)
	if err != hiddendb.ErrBudgetExhausted {
		t.Fatalf("err = %v, want budget exhausted", err)
	}
	if o.Cost != 1 {
		t.Errorf("partial cost = %d, want 1", o.Cost)
	}

	s2 := f.NewSession(0)
	full, err := DrillFromRoot(s2, tr, sig)
	if err != nil {
		t.Fatal(err)
	}
	if full.Depth == 0 {
		t.Skip("drill ended at root; pick different seed")
	}
	// Budget exactly one short of the update's parent check.
	s3 := f.NewSession(1)
	if _, err := UpdateDrill(s3, tr, sig, full.Depth); err != hiddendb.ErrBudgetExhausted {
		t.Errorf("update err = %v, want budget exhausted", err)
	}
}

func TestSelectionSubtree(t *testing.T) {
	st := buildStore(t, 15, 3000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	sel := hiddendb.NewQuery(hiddendb.Pred{Attr: 1, Val: 2})
	tr := NewWithSelection(st.Schema(), sel)

	if tr.Depth() != 4 {
		t.Fatalf("subtree depth = %d, want 4", tr.Depth())
	}
	if tr.Selection().Len() != 1 {
		t.Fatalf("selection lost")
	}
	// Every node must contain the selection predicate.
	rng := rand.New(rand.NewSource(16))
	sig := tr.RandomSignature(rng)
	for d := 0; d <= tr.Depth(); d++ {
		q := tr.Node(sig, d)
		found := false
		for _, p := range q.Preds() {
			if p.Attr == 1 && p.Val == 2 {
				found = true
			}
		}
		if !found {
			t.Errorf("node at depth %d lacks selection predicate: %v", d, q)
		}
	}

	// Exhaustive unbiasedness within the subtree: expectation over all
	// subtree leaves equals COUNT(*) WHERE A2=2.
	truth := st.CountMatching(sel)
	var total float64
	leaves := 0
	domAt := func(level int) int { return st.Schema().DomainSize(tr.LevelAttr(level)) }
	var walk func(sig Signature, level int)
	walk = func(sig Signature, level int) {
		if level == tr.Depth() {
			leaves++
			o, err := DrillFromRoot(f.AsSearcher(), tr, sig)
			if err != nil {
				t.Fatal(err)
			}
			total += float64(len(o.Result.Tuples)) / o.P(tr)
			return
		}
		for v := 0; v < domAt(level); v++ {
			next := make(Signature, level+1)
			copy(next, sig)
			next[level] = uint16(v)
			walk(next, level+1)
		}
	}
	walk(Signature{}, 0)
	mean := total / float64(leaves)
	if math.Abs(mean-float64(truth)) > 1e-6*math.Max(1, float64(truth)) {
		t.Errorf("subtree expectation = %v, want %d", mean, truth)
	}
}

func TestUpdateDrillPanicsOnBadDepth(t *testing.T) {
	st := buildStore(t, 17, 20, []int{4, 4, 4})
	f := hiddendb.NewIface(st, 5, nil)
	tr := New(st.Schema())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	_, _ = UpdateDrill(f.AsSearcher(), tr, Signature{0, 0, 0}, 9)
}

func TestExpectedDrillDepthLowerBound(t *testing.T) {
	if got := ExpectedDrillDepthLowerBound(100, 200, 10); got != 1 {
		t.Errorf("n<=k should give 1, got %v", got)
	}
	got := ExpectedDrillDepthLowerBound(100000, 10, 10)
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("bound = %v, want 4", got)
	}
}

// Leaf overflow must be surfaced, not silently mis-estimated. Construct a
// store with duplicate-valued tuples (illegal per the paper's model).
func TestLeafOverflowDetected(t *testing.T) {
	sch := schema.New([]schema.Attr{{Name: "a", Domain: []string{"x", "y"}}})
	st := hiddendb.NewStore(sch)
	for i := 0; i < 5; i++ {
		if err := st.Insert(&schema.Tuple{ID: uint64(i + 1), Vals: []uint16{0}}); err != nil {
			t.Fatal(err)
		}
	}
	f := hiddendb.NewIface(st, 2, nil)
	tr := New(sch)
	if _, err := DrillFromRoot(f.AsSearcher(), tr, Signature{0}); err != ErrLeafOverflow {
		t.Errorf("err = %v, want ErrLeafOverflow", err)
	}
	if _, err := UpdateDrill(f.AsSearcher(), tr, Signature{0}, 1); err != ErrLeafOverflow {
		t.Errorf("update err = %v, want ErrLeafOverflow", err)
	}
}

// Multi-predicate selection subtrees: the drill order must skip every
// fixed attribute and p() must reflect only the drilled domains.
func TestSelectionSubtreeMultiplePredicates(t *testing.T) {
	st := buildStore(t, 40, 1000, []int{8, 7, 6, 5, 4})
	sel := hiddendb.NewQuery(
		hiddendb.Pred{Attr: 0, Val: 3},
		hiddendb.Pred{Attr: 3, Val: 1},
	)
	tr := NewWithSelection(st.Schema(), sel)
	if tr.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Depth())
	}
	wantOrder := []int{1, 2, 4}
	for lvl, attr := range wantOrder {
		if tr.LevelAttr(lvl) != attr {
			t.Errorf("level %d drills attr %d, want %d", lvl, tr.LevelAttr(lvl), attr)
		}
	}
	// p at full depth = 1/(7*6*4).
	if got, want := tr.P(3), 1.0/(7*6*4); math.Abs(got-want) > 1e-15 {
		t.Errorf("P(3) = %v, want %v", got, want)
	}
	// Every node carries both predicates.
	sig := tr.RandomSignature(rand.New(rand.NewSource(41)))
	q := tr.Node(sig, 3)
	if q.Len() != 5 {
		t.Errorf("leaf query has %d predicates, want 5", q.Len())
	}
}

// Outcome cost accounting must match the session's own query counter for
// both fresh drills and updates.
func TestCostAccountingMatchesSession(t *testing.T) {
	st := buildStore(t, 42, 2000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20; i++ {
		sig := tr.RandomSignature(rng)
		s := f.NewSession(0)
		o, err := DrillFromRoot(s, tr, sig)
		if err != nil {
			t.Fatal(err)
		}
		if o.Cost != s.Used() {
			t.Fatalf("fresh drill cost %d != session used %d", o.Cost, s.Used())
		}
		s2 := f.NewSession(0)
		u, err := UpdateDrill(s2, tr, sig, o.Depth)
		if err != nil {
			t.Fatal(err)
		}
		if u.Cost != s2.Used() {
			t.Fatalf("update cost %d != session used %d", u.Cost, s2.Used())
		}
	}
}

// After deleting everything, any update must roll up to the root and
// estimate zero.
func TestUpdateDrillAfterTotalDeletion(t *testing.T) {
	st := buildStore(t, 44, 1500, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(45))
	sig := tr.RandomSignature(rng)
	o, err := DrillFromRoot(f.AsSearcher(), tr, sig)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range st.IDs() {
		if _, err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	u, err := UpdateDrill(f.AsSearcher(), tr, sig, o.Depth)
	if err != nil {
		t.Fatal(err)
	}
	if u.Depth != 0 || !u.Result.Underflow() {
		t.Errorf("update on empty db: depth %d, underflow %v", u.Depth, u.Result.Underflow())
	}
	// Cost: one query per level climbed, plus the initial reissue.
	if u.Cost != o.Depth+1 {
		t.Errorf("roll-up cost %d, want %d", u.Cost, o.Depth+1)
	}
}

// recorder logs the key of every query that reaches the database.
type recorder struct {
	hiddendb.BatchSearcher
	keys []string
}

func (r *recorder) Search(q hiddendb.Query) (hiddendb.Result, error) {
	r.keys = append(r.keys, q.Key())
	return r.BatchSearcher.Search(q)
}

// TestDrillBudgetCuts cuts fresh drills and updates short at every budget
// below their cost. A cut walk must stop with ErrBudgetExhausted after
// exactly the first b queries of the unbudgeted walk, and a budget equal
// to the cost must reproduce the unbudgeted outcome. The store is churned
// between the fresh drills and their updates so that every UpdateDrill
// case occurs: drilling below the previous node, climbing above it, and
// staying at it.
func TestDrillBudgetCuts(t *testing.T) {
	st := buildStore(t, 51, 3000, []int{8, 7, 6, 5, 4})
	f := hiddendb.NewIface(st, 10, nil)
	tr := New(st.Schema())
	rng := rand.New(rand.NewSource(52))

	// check runs walk unbudgeted, then at every budget up to its cost.
	check := func(label string, walk func(s hiddendb.Searcher) (Outcome, error)) Outcome {
		t.Helper()
		full := &recorder{BatchSearcher: f}
		want, err := walk(full)
		if err != nil {
			t.Fatalf("%s: unbudgeted walk: %v", label, err)
		}
		if want.Cost != len(full.keys) {
			t.Fatalf("%s: cost %d, issued %d queries", label, want.Cost, len(full.keys))
		}
		for b := 1; b <= want.Cost; b++ {
			rec := &recorder{BatchSearcher: f}
			s := hiddendb.NewSession(rec, b)
			got, err := walk(s)
			if !reflect.DeepEqual(rec.keys, full.keys[:b]) {
				t.Fatalf("%s budget %d: issued %v, want %v", label, b, rec.keys, full.keys[:b])
			}
			if b == want.Cost {
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s budget %d: got %+v, %v; want %+v", label, b, got, err, want)
				}
				continue
			}
			if err != hiddendb.ErrBudgetExhausted {
				t.Fatalf("%s budget %d: err = %v, want budget exhausted", label, b, err)
			}
			if got.Cost != b || s.Used() != b {
				t.Fatalf("%s budget %d: cost %d, session used %d", label, b, got.Cost, s.Used())
			}
		}
		return want
	}

	sigs := make([]Signature, 60)
	depths := make([]int, len(sigs))
	for i := range sigs {
		sig := tr.RandomSignature(rng)
		o := check("fresh", func(s hiddendb.Searcher) (Outcome, error) { return DrillFromRoot(s, tr, sig) })
		sigs[i], depths[i] = sig, o.Depth
	}

	// Shrink the half of the tree under A1 >= 4 and grow the other half,
	// so updates both climb and drill below their previous nodes.
	for _, id := range st.IDs() {
		if st.Get(id).Vals[0] >= 4 && rng.Float64() < 0.7 {
			if _, err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	seen := make(map[string]bool)
	st.ForEach(func(tu *schema.Tuple) { seen[tu.Key()] = true })
	for added := 0; added < 1500; {
		vals := make([]uint16, 5)
		for i := range vals {
			vals[i] = uint16(rng.Intn(st.Schema().DomainSize(i)))
		}
		vals[0] %= 4
		tu := &schema.Tuple{ID: st.NextID(), Vals: vals}
		if seen[tu.Key()] {
			continue
		}
		seen[tu.Key()] = true
		if err := st.Insert(tu); err != nil {
			t.Fatal(err)
		}
		added++
	}

	var below, climb, stay int
	for i, sig := range sigs {
		prev := depths[i]
		o := check("update", func(s hiddendb.Searcher) (Outcome, error) { return UpdateDrill(s, tr, sig, prev) })
		switch {
		case o.Depth > prev:
			below++
		case o.Depth < prev:
			climb++
		default:
			stay++
		}
	}
	if below == 0 || climb == 0 || stay == 0 {
		t.Fatalf("update cases: %d below, %d climb, %d stay; want all three", below, climb, stay)
	}
	t.Logf("update cases: %d below, %d climb, %d stay", below, climb, stay)
}
