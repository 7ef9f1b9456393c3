package estimator

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/querytree"
)

func TestVarModelObserveAndSmoothing(t *testing.T) {
	var m varModel
	if m.haveHT || m.haveDiff {
		t.Fatal("zero value should be empty")
	}
	// Fallback before any observation.
	if got := m.htVar(42); got != 42 {
		t.Errorf("htVar fallback = %v", got)
	}
	m.observe(100, 10, 0, 0)
	if !m.haveHT || m.ht != 100 {
		t.Errorf("first observation not adopted: %+v", m)
	}
	m.observe(200, 10, 0, 0)
	if m.ht != 150 { // λ = 0.5
		t.Errorf("EWMA = %v, want 150", m.ht)
	}
	// Samples below the minimum count are ignored.
	m.observe(1e9, 1, 1e9, 1)
	if m.ht != 150 || m.haveDiff {
		t.Errorf("tiny samples should be ignored: %+v", m)
	}
	m.observe(0, 0, 50, 5)
	if !m.haveDiff || m.diff != 50 {
		t.Errorf("diff not adopted: %+v", m)
	}
}

func TestVarModelDiffVarFor(t *testing.T) {
	var m varModel
	// Without diff observations: conservative half-HT per gap round.
	if got := m.diffVarFor(2, 100); got != 100 {
		t.Errorf("no-diff fallback = %v, want 0.5*100*2", got)
	}
	m.observe(1000, 10, 40, 10)
	if got := m.diffVarFor(1, 0); got != 40 {
		t.Errorf("diffVarFor(1) = %v", got)
	}
	if got := m.diffVarFor(3, 0); got != 120 {
		t.Errorf("diffVarFor(3) = %v, want gap scaling", got)
	}
	// The 1% floor prevents history freezing.
	m.observe(1000, 10, 0, 10) // diff EWMA decays toward 0
	m.observe(1000, 10, 0, 10)
	m.observe(1000, 10, 0, 10)
	lo := m.diffVarFor(1, 0)
	if lo < 0.01*m.ht {
		t.Errorf("diff floor violated: %v < %v", lo, 0.01*m.ht)
	}
	// Zero-gap requests are clamped to gap 1.
	if m.diffVarFor(0, 0) != m.diffVarFor(1, 0) {
		t.Error("gap clamp missing")
	}
}

func TestCombinePartsPrefersLowVariance(t *testing.T) {
	a := agg.CountAll()
	est, ok := combineParts(a, []groupPart{
		{pair: agg.Pair{Count: 100, SumF: 100}, value: 100, indep: 1, n: 5},
		{pair: agg.Pair{Count: 900, SumF: 900}, value: 900, indep: 1e9, n: 5},
	})
	if !ok {
		t.Fatal("no estimate")
	}
	if math.Abs(est.Value-100) > 1 {
		t.Errorf("combined = %v, want ~100", est.Value)
	}
	if est.Drills != 10 {
		t.Errorf("drills = %d", est.Drills)
	}
	if est.Variance <= 0 || est.Variance > 1 {
		t.Errorf("variance = %v", est.Variance)
	}
}

func TestCombinePartsCorrelatedOldGroupsAreFloored(t *testing.T) {
	a := agg.CountAll()
	// Ten "old" parts sharing history: pooling them must NOT report a
	// variance ten times smaller than the best single part.
	var parts []groupPart
	for i := 0; i < 10; i++ {
		parts = append(parts, groupPart{
			pair: agg.Pair{Count: 100}, value: 100,
			indep: 0.5, carried: 2.0, n: 3,
		})
	}
	est, ok := combineParts(a, parts)
	if !ok {
		t.Fatal("no estimate")
	}
	if est.Variance < 2.0 {
		t.Errorf("correlated pooling reported variance %v < best single 2.5", est.Variance)
	}
}

func TestCombinePartsEmpty(t *testing.T) {
	if _, ok := combineParts(agg.CountAll(), nil); ok {
		t.Error("empty parts produced an estimate")
	}
}

func TestAllocateSendsBudgetToInformativeArm(t *testing.T) {
	te := newTestEnv(t, 200, 5000, 4500, 100)
	r, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(201))
	if err != nil {
		t.Fatal(err)
	}
	r.round = 3

	mkGroup := func(key int, alpha, beta, g float64, members int) *rsGroup {
		grp := &rsGroup{key: key, alpha: alpha, beta: beta, g: g}
		for i := 0; i < members; i++ {
			grp.members = append(grp.members, &drill{})
		}
		return grp
	}

	// Static-database shape: updated group has tiny α but a β anchor;
	// new drills have large α and no β. The first few updates are worth
	// it; everything after must flow to new drills.
	old := mkGroup(2, 1.0, 100.0, 2, 1000)
	fresh := mkGroup(newGroupKey, 1e4, 0, 3, 0)
	r.allocate([]*rsGroup{old, fresh}, 300)
	if fresh.want == 0 {
		t.Errorf("no budget for new drills: old=%d new=%d", old.want, fresh.want)
	}
	if old.want > 50 {
		t.Errorf("over-updating a saturated group: old=%d", old.want)
	}

	// Drastic-change shape: diff variance ~ HT variance, updates cheaper.
	// Corollary 4.1's closed form gives h1 = h·(√(gd/gc) − 1) ≈ 0.41·h
	// here; the greedy allocation should land in the same region — far
	// more updates than the static case, but not full coverage.
	old2 := mkGroup(2, 1e4, 100.0, 2, 120)
	fresh2 := mkGroup(newGroupKey, 1e4, 0, 4, 0)
	r.allocate([]*rsGroup{old2, fresh2}, 300)
	if old2.want < 25 || old2.want > 80 {
		t.Errorf("big change: updates = %d/120, want ≈ 0.41·120 ± slack", old2.want)
	}
	if old2.want <= old.want {
		t.Errorf("big change should update more than static: %d vs %d", old2.want, old.want)
	}
}

func TestAllocateRespectsBudgetAndCapacity(t *testing.T) {
	te := newTestEnv(t, 210, 5000, 4500, 100)
	r, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(211))
	if err != nil {
		t.Fatal(err)
	}
	r.round = 2
	old := &rsGroup{key: 1, alpha: 10, beta: 1, g: 2}
	for i := 0; i < 5; i++ {
		old.members = append(old.members, &drill{})
	}
	fresh := &rsGroup{key: newGroupKey, alpha: 100, beta: 0, g: 4}
	r.allocate([]*rsGroup{old, fresh}, 100)
	if old.want > 5 {
		t.Errorf("allocated %d updates to a 5-member group", old.want)
	}
	spent := float64(old.want)*old.g + float64(fresh.want)*fresh.g
	if spent > 100+fresh.g {
		t.Errorf("allocation overspends: %.0f > 100", spent)
	}
}

func TestRetireStaleGroups(t *testing.T) {
	te := newTestEnv(t, 220, 5000, 4500, 100)
	r, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(221))
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range []int{1, 1, 2, 3, 4, 5, 5, 5} {
		r.pool = append(r.pool, &drill{cur: contribution{round: round}})
	}
	r.retireStaleGroups()
	for _, d := range r.pool {
		if d.cur.round < 3 {
			t.Errorf("stale drill from round %d survived", d.cur.round)
		}
	}
	if len(r.pool) != 5 {
		t.Errorf("pool size = %d, want 5", len(r.pool))
	}
	// Fewer distinct groups than the cap: untouched.
	before := len(r.pool)
	r.retireStaleGroups()
	if len(r.pool) != before {
		t.Error("retirement ran on a compliant pool")
	}
}

func TestRSHistEstBounds(t *testing.T) {
	te := newTestEnv(t, 230, 5000, 4500, 100)
	r, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(231))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.histEst(0, 0); ok {
		t.Error("histEst(0) should be empty")
	}
	if _, ok := r.histEst(5, 0); ok {
		t.Error("histEst(future) should be empty")
	}
	if err := r.Step(te.iface.NewSession(200)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.histEst(1, 0); !ok {
		t.Error("histEst(1) missing after round 1")
	}
}

// Property: on a static database, updating drill downs must always land on
// the same depth, so RS's diff terms are exactly zero and its estimate is
// reproducible from history.
func TestRSStaticDiffsAreZero(t *testing.T) {
	te := newTestEnv(t, 240, 10000, 10000, 100)
	r, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(241))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		if err := r.Step(te.iface.NewSession(300)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range r.pool {
		if d.prev.round == 0 {
			continue
		}
		if d.cur.depth != d.prev.depth {
			t.Errorf("static db but drill moved: %d -> %d", d.prev.depth, d.cur.depth)
		}
		if d.cur.pairs[0] != d.prev.pairs[0] {
			t.Errorf("static db but pair changed: %+v -> %+v", d.prev.pairs[0], d.cur.pairs[0])
		}
	}
}

// A drill pool shared by a tree must produce valid signatures only.
func TestRSPoolSignaturesValid(t *testing.T) {
	te := newTestEnv(t, 250, 8000, 7000, 100)
	r, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(251))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(te.iface.NewSession(300)); err != nil {
		t.Fatal(err)
	}
	sch := te.env.Store.Schema()
	for _, d := range r.pool {
		if len(d.sig) != sch.M() {
			t.Fatalf("signature length %d", len(d.sig))
		}
		for lvl, v := range d.sig {
			if int(v) >= sch.DomainSize(lvl) {
				t.Fatalf("signature value out of domain at level %d", lvl)
			}
		}
		_ = querytree.Signature(d.sig)
	}
}

func TestMeanOr(t *testing.T) {
	if meanOr(nil, 7) != 7 {
		t.Error("empty default")
	}
	if meanOr([]float64{2, 4}, 7) != 3 {
		t.Error("mean")
	}
}

func TestSampleVarOfMean(t *testing.T) {
	if sampleVarOfMean(nil) != 0 || sampleVarOfMean([]float64{5}) != 0 {
		t.Error("degenerate cases should be 0")
	}
	got := sampleVarOfMean([]float64{1, 3})
	if math.Abs(got-1) > 1e-12 { // var=2, /n=2 → 1
		t.Errorf("sampleVarOfMean = %v, want 1", got)
	}
}

var _ = rand.New // keep math/rand import if helpers change
