package estimator

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/stats"
	"github.com/dynagg/dynagg/internal/workload"
)

// testEnv bundles a dynamic database and its restricted interface.
type testEnv struct {
	env   *workload.Env
	iface *hiddendb.Iface
}

func newTestEnv(t testing.TB, seed int64, n, initial, k int) *testEnv {
	t.Helper()
	data := workload.AutosLikeN(seed, n, 8)
	env, err := workload.NewEnv(data, initial, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{env: env, iface: hiddendb.NewIface(env.Store, k, nil)}
}

func cfg(seed int64) Config {
	return Config{Rand: rand.New(rand.NewSource(seed))}
}

// PoolSize returns the number of live drill downs.
func (r *Reissue) PoolSize() int { return len(r.pool) }

// PoolSize returns the number of live drill downs.
func (r *RS) PoolSize() int { return len(r.pool) }

func TestConstructorValidation(t *testing.T) {
	te := newTestEnv(t, 1, 2000, 1500, 50)
	sch := te.env.Store.Schema()
	if _, err := NewRestart(sch, nil, cfg(1)); err == nil {
		t.Error("no aggregates accepted")
	}
	if _, err := NewRestart(sch, []*agg.Aggregate{agg.CountAll()}, Config{}); err == nil {
		t.Error("missing Rand accepted")
	}
	if e, err := New("BOGUS", sch, []*agg.Aggregate{agg.CountAll()}, cfg(1)); err == nil || e != nil {
		t.Errorf("unknown algorithm: got %v, %v; want a nil Estimator and an error", e, err)
	}
	if e, err := New("RS", sch, nil, cfg(1)); err == nil || e != nil {
		t.Errorf("no aggregates: got %v, %v; want a nil Estimator and an error", e, err)
	}
	for algo, want := range map[string]string{"RESTART": "RESTART", "REISSUE": "REISSUE", "RS": "RS", "": "RS"} {
		e, err := New(algo, sch, []*agg.Aggregate{agg.CountAll()}, cfg(2))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != want {
			t.Errorf("New(%q) built %s, want %s", algo, e.Name(), want)
		}
		if e.Round() != 0 {
			t.Errorf("%s: fresh round = %d", e.Name(), e.Round())
		}
		if _, ok := e.Estimate(0); ok {
			t.Errorf("%s: estimate before any step", e.Name())
		}
		if _, ok := e.Estimate(99); ok {
			t.Errorf("%s: out-of-range index accepted", e.Name())
		}
		if _, ok := e.EstimateDelta(0); ok {
			t.Errorf("%s: delta before any step", e.Name())
		}
	}
}

// All three estimators must respect the per-round budget exactly.
func TestBudgetNeverExceeded(t *testing.T) {
	for _, name := range []string{"RESTART", "REISSUE", "RS"} {
		te := newTestEnv(t, 10, 5000, 4000, 100)
		sch := te.env.Store.Schema()
		aggs := []*agg.Aggregate{agg.CountAll()}
		e, err := New(name, sch, aggs, cfg(11))
		if err != nil {
			t.Fatal(err)
		}
		const G = 120
		for round := 1; round <= 5; round++ {
			if round > 1 {
				if err := te.env.InsertFromPool(50); err != nil {
					t.Fatal(err)
				}
			}
			sess := te.iface.NewSession(G)
			if err := e.Step(sess); err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			if sess.Used() > G {
				t.Fatalf("%s round %d used %d > %d", name, round, sess.Used(), G)
			}
			if e.UsedLastRound() != sess.Used() {
				t.Errorf("%s UsedLastRound=%d, session says %d", name, e.UsedLastRound(), sess.Used())
			}
			if e.Round() != round {
				t.Errorf("%s Round=%d, want %d", name, e.Round(), round)
			}
		}
	}
}

// Unbiasedness (Theorem 3.1 / 4.1): across many independent runs over the
// same static database, the mean estimate converges to the truth.
func TestUnbiasedOverTrials(t *testing.T) {
	te := newTestEnv(t, 20, 20000, 20000, 100)
	sch := te.env.Store.Schema()
	truth := float64(te.env.Store.Size())

	for _, name := range []string{"RESTART", "REISSUE", "RS"} {
		var r stats.Running
		for trial := 0; trial < 40; trial++ {
			aggs := []*agg.Aggregate{agg.CountAll()}
			c := cfg(int64(1000 + trial))
			e, err := New(name, sch, aggs, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Step(te.iface.NewSession(400)); err != nil {
				t.Fatal(err)
			}
			est, ok := e.Estimate(0)
			if !ok {
				t.Fatalf("%s: no estimate", name)
			}
			r.Add(est.Value)
		}
		if rel := math.Abs(r.Mean()-truth) / truth; rel > 0.15 {
			t.Errorf("%s: mean of 40 trials off by %.0f%% (mean=%.0f truth=%.0f)",
				name, rel*100, r.Mean(), truth)
		}
	}
}

// REISSUE over a static database: second-round updates cost ~2 queries per
// drill down, so it completes far more drill downs than RESTART under the
// same budget (the Example 1 argument).
func TestReissueSavesQueriesWhenStatic(t *testing.T) {
	te := newTestEnv(t, 30, 20000, 20000, 100)
	sch := te.env.Store.Schema()

	re, err := NewReissue(sch, []*agg.Aggregate{agg.CountAll()}, cfg(31))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRestart(sch, []*agg.Aggregate{agg.CountAll()}, cfg(31))
	if err != nil {
		t.Fatal(err)
	}
	const G = 300
	for round := 1; round <= 4; round++ {
		if err := re.Step(te.iface.NewSession(G)); err != nil {
			t.Fatal(err)
		}
		if err := rs.Step(te.iface.NewSession(G)); err != nil {
			t.Fatal(err)
		}
	}
	if re.DrillDowns() <= rs.DrillDowns() {
		t.Errorf("REISSUE drill downs %d not above RESTART %d on static data",
			re.DrillDowns(), rs.DrillDowns())
	}
	// And its final-round estimate should use more drills than RESTART's.
	reEst, _ := re.Estimate(0)
	rsEst, _ := rs.Estimate(0)
	if reEst.Drills <= rsEst.Drills {
		t.Errorf("REISSUE drills/round %d <= RESTART %d", reEst.Drills, rsEst.Drills)
	}
}

// Tracking through rounds of churn: every round's estimate should stay
// within a loose band of the truth for all three estimators.
func TestTrackingUnderChurn(t *testing.T) {
	for _, name := range []string{"RESTART", "REISSUE", "RS"} {
		te := newTestEnv(t, 40, 30000, 25000, 100)
		sch := te.env.Store.Schema()
		aggs := []*agg.Aggregate{agg.CountAll()}
		e, err := New(name, sch, aggs, cfg(41))
		if err != nil {
			t.Fatal(err)
		}
		var rels []float64
		for round := 1; round <= 8; round++ {
			if round > 1 {
				if err := te.env.DeleteFraction(0.01); err != nil {
					t.Fatal(err)
				}
				if err := te.env.InsertFromPool(300); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Step(te.iface.NewSession(500)); err != nil {
				t.Fatal(err)
			}
			est, ok := e.Estimate(0)
			if !ok {
				t.Fatalf("%s round %d: no estimate", name, round)
			}
			rels = append(rels, stats.RelativeError(est.Value, float64(te.env.Store.Size())))
		}
		// Average relative error across rounds must be sane.
		mean, _ := stats.Mean(rels)
		if mean > 0.5 {
			t.Errorf("%s: mean relative error %.2f too high (%v)", name, mean, rels)
		}
	}
}

// Trans-round delta estimates: REISSUE's paired deltas should track the
// true |D_j| − |D_{j-1}| with far less noise than differencing RESTART's
// independent estimates (the §3.2.1 Example 1 argument).
func TestDeltaEstimates(t *testing.T) {
	te := newTestEnv(t, 50, 30000, 25000, 100)
	sch := te.env.Store.Schema()

	re, err := NewReissue(sch, []*agg.Aggregate{agg.CountAll()}, cfg(51))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRestart(sch, []*agg.Aggregate{agg.CountAll()}, cfg(52))
	if err != nil {
		t.Fatal(err)
	}

	prevSize := te.env.Store.Size()
	var reErr, restartErr stats.Running
	for round := 1; round <= 6; round++ {
		if round > 1 {
			if err := te.env.InsertFromPool(500); err != nil {
				t.Fatal(err)
			}
		}
		trueDelta := float64(te.env.Store.Size() - prevSize)
		prevSize = te.env.Store.Size()
		if err := re.Step(te.iface.NewSession(500)); err != nil {
			t.Fatal(err)
		}
		if err := rs.Step(te.iface.NewSession(500)); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			if _, ok := re.EstimateDelta(0); ok {
				t.Error("delta available at round 1")
			}
			continue
		}
		if d, ok := re.EstimateDelta(0); ok {
			reErr.Add(math.Abs(d.Value - trueDelta))
		} else {
			t.Fatalf("REISSUE: no delta at round %d", round)
		}
		if d, ok := rs.EstimateDelta(0); ok {
			restartErr.Add(math.Abs(d.Value - trueDelta))
		}
	}
	if reErr.Mean() >= restartErr.Mean() {
		t.Errorf("REISSUE delta error %.0f not below RESTART %.0f", reErr.Mean(), restartErr.Mean())
	}
}

// RS on a static database must keep improving (more drill downs,
// shrinking variance) where REISSUE plateaus — the §4.1 motivation.
func TestRSBeatsReissueWhenStatic(t *testing.T) {
	te := newTestEnv(t, 60, 20000, 20000, 100)
	sch := te.env.Store.Schema()

	re, err := NewReissue(sch, []*agg.Aggregate{agg.CountAll()}, cfg(61))
	if err != nil {
		t.Fatal(err)
	}
	rse, err := NewRS(sch, []*agg.Aggregate{agg.CountAll()}, cfg(61))
	if err != nil {
		t.Fatal(err)
	}
	const G = 200
	for round := 1; round <= 10; round++ {
		if err := re.Step(te.iface.NewSession(G)); err != nil {
			t.Fatal(err)
		}
		if err := rse.Step(te.iface.NewSession(G)); err != nil {
			t.Fatal(err)
		}
	}
	// On static data RS routes its budget into NEW signatures (REISSUE is
	// stuck re-verifying its fixed set), so RS must cover clearly more
	// distinct signatures...
	if rse.PoolSize() <= re.PoolSize() {
		t.Errorf("RS pool %d not above REISSUE pool %d on static data",
			rse.PoolSize(), re.PoolSize())
	}
	// ...and its combined estimate keeps sharpening across rounds while
	// REISSUE's variance plateaus at the §4.1 lower bound.
	reEst, ok1 := re.Estimate(0)
	rsEst, ok2 := rse.Estimate(0)
	if !ok1 || !ok2 {
		t.Fatal("missing estimates")
	}
	if rsEst.Variance >= reEst.Variance {
		t.Errorf("RS variance %.3g not below REISSUE %.3g after 10 static rounds",
			rsEst.Variance, reEst.Variance)
	}
}

func TestMultipleAggregatesIncludingAvgAndSelection(t *testing.T) {
	te := newTestEnv(t, 70, 30000, 28000, 100)
	sch := te.env.Store.Schema()
	price := agg.AuxField(0)
	sel := hiddendb.NewQuery(hiddendb.Pred{Attr: 1, Val: 2})
	aggs := []*agg.Aggregate{
		agg.CountAll(),
		agg.SumOf("SUM(price)", price),
		agg.AvgOf("AVG(price)", price),
		agg.CountWhere("COUNT sel", sel),
	}
	e, err := NewReissue(sch, aggs, cfg(71))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if round > 1 {
			if err := te.env.InsertFromPool(100); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Step(te.iface.NewSession(600)); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range aggs {
		est, ok := e.Estimate(i)
		if !ok {
			t.Fatalf("no estimate for %s", a)
		}
		truth := a.Truth(te.env.Store)
		rel := stats.RelativeError(est.Value, truth)
		if rel > 0.8 {
			t.Errorf("%s: relative error %.2f (est %.1f truth %.1f)", a, rel, est.Value, truth)
		}
	}
}

// A shared selection condition shrinks the tree (paper §3.3): the
// estimates should be much tighter than with the full tree.
func TestSharedSelectionUsesSubtree(t *testing.T) {
	te := newTestEnv(t, 80, 30000, 28000, 100)
	sch := te.env.Store.Schema()
	sel := hiddendb.NewQuery(hiddendb.Pred{Attr: 0, Val: 1})
	aggs := []*agg.Aggregate{agg.CountWhere("COUNT(A1=1)", sel)}
	e, err := NewReissue(sch, aggs, cfg(81))
	if err != nil {
		t.Fatal(err)
	}
	if e.tree.Depth() != sch.M()-1 {
		t.Fatalf("subtree not used: depth = %d", e.tree.Depth())
	}
	if err := e.Step(te.iface.NewSession(400)); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Estimate(0)
	if !ok {
		t.Fatal("no estimate")
	}
	truth := aggs[0].Truth(te.env.Store)
	if rel := stats.RelativeError(est.Value, truth); rel > 0.5 {
		t.Errorf("subtree estimate rel err %.2f (est %.1f truth %.1f)", rel, est.Value, truth)
	}
}

func TestAdHocRequiresRetention(t *testing.T) {
	te := newTestEnv(t, 90, 10000, 9000, 100)
	sch := te.env.Store.Schema()

	// Without retention: error.
	e1, err := NewReissue(sch, []*agg.Aggregate{agg.CountAll()}, cfg(91))
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Step(te.iface.NewSession(200)); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.AdHoc(agg.SumOf("adhoc", agg.AuxField(0)), 1); err == nil {
		t.Error("ad hoc without retention should fail")
	}

	// With retention: an aggregate never registered at Step time can be
	// estimated afterwards against round-1 data (§5.1 ad hoc model).
	c := cfg(92)
	c.RetainTuples = true
	e2, err := NewReissue(sch, []*agg.Aggregate{agg.CountAll()}, c)
	if err != nil {
		t.Fatal(err)
	}
	truth1 := agg.SumOf("x", agg.AuxField(0)).Truth(te.env.Store)
	if err := e2.Step(te.iface.NewSession(600)); err != nil {
		t.Fatal(err)
	}
	if err := te.env.InsertFromPool(300); err != nil {
		t.Fatal(err)
	}
	if err := e2.Step(te.iface.NewSession(600)); err != nil {
		t.Fatal(err)
	}
	est, err := e2.AdHoc(agg.SumOf("SUM(price)@R1", agg.AuxField(0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := stats.RelativeError(est.Value, truth1); rel > 0.9 {
		t.Errorf("ad hoc rel err %.2f (est %.0f truth %.0f)", rel, est.Value, truth1)
	}
	if _, err := e2.AdHoc(agg.CountAll(), 77); err == nil {
		t.Error("ad hoc for unknown round should fail")
	}
}

func TestMaxDrillsBoundsPool(t *testing.T) {
	te := newTestEnv(t, 110, 10000, 9000, 100)
	sch := te.env.Store.Schema()
	c := cfg(111)
	c.MaxDrills = 20
	e, err := NewReissue(sch, []*agg.Aggregate{agg.CountAll()}, c)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := e.Step(te.iface.NewSession(500)); err != nil {
			t.Fatal(err)
		}
	}
	if e.PoolSize() > 20 {
		t.Errorf("pool %d exceeds MaxDrills", e.PoolSize())
	}
}

// TestUnboundedRound: on a session without a budget RESTART and REISSUE
// drill until the pool reaches MaxDrills, so with MaxDrills 0 they
// refuse the round before spending a query, and with MaxDrills 64 they
// finish it with 64 drills.
func TestUnboundedRound(t *testing.T) {
	te := newTestEnv(t, 130, 10000, 9000, 100)
	sch := te.env.Store.Schema()
	for _, algo := range []string{"RESTART", "REISSUE"} {
		e, err := New(algo, sch, []*agg.Aggregate{agg.CountAll()}, cfg(131))
		if err != nil {
			t.Fatal(err)
		}
		sess := te.iface.NewSession(0)
		if err := e.Step(sess); !errors.Is(err, ErrUnboundedRound) {
			t.Errorf("%s: uncapped unlimited round: err = %v, want ErrUnboundedRound", algo, err)
		}
		if sess.Used() != 0 || e.Round() != 0 {
			t.Errorf("%s: refused round spent %d queries and advanced to round %d", algo, sess.Used(), e.Round())
		}

		c := cfg(131)
		c.MaxDrills = 64
		e, err = New(algo, sch, []*agg.Aggregate{agg.CountAll()}, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(te.iface.NewSession(0)); err != nil {
			t.Fatalf("%s: capped unlimited round: %v", algo, err)
		}
		if e.Round() != 1 || e.DrillDowns() != 64 {
			t.Errorf("%s: capped unlimited round ended at round %d with %d drills, want 1 and 64", algo, e.Round(), e.DrillDowns())
		}
	}
}

// RS with the delta target must produce delta estimates and allocate
// budget without crashing in multi-round operation under churn.
func TestRSDeltaTarget(t *testing.T) {
	te := newTestEnv(t, 120, 30000, 25000, 100)
	sch := te.env.Store.Schema()
	c := cfg(121)
	c.DeltaTarget = true
	e, err := NewRS(sch, []*agg.Aggregate{agg.CountAll()}, c)
	if err != nil {
		t.Fatal(err)
	}
	prev := te.env.Store.Size()
	for round := 1; round <= 6; round++ {
		if round > 1 {
			if err := te.env.InsertFromPool(400); err != nil {
				t.Fatal(err)
			}
			if err := te.env.DeleteFraction(0.005); err != nil {
				t.Fatal(err)
			}
		}
		trueDelta := float64(te.env.Store.Size() - prev)
		prev = te.env.Store.Size()
		if err := e.Step(te.iface.NewSession(500)); err != nil {
			t.Fatal(err)
		}
		if round >= 2 {
			d, ok := e.EstimateDelta(0)
			if !ok {
				t.Fatalf("no delta at round %d", round)
			}
			if math.Abs(d.Value-trueDelta) > float64(te.env.Store.Size()) {
				t.Errorf("round %d: delta estimate %v wildly off (true %v)", round, d.Value, trueDelta)
			}
		}
	}
}

// Tiny budgets: estimators must degrade gracefully, never exceed the
// budget, and never return an error other than nil.
func TestTinyBudgets(t *testing.T) {
	for _, g := range []int{1, 2, 3, 5} {
		for _, name := range []string{"RESTART", "REISSUE", "RS"} {
			te := newTestEnv(t, 140, 5000, 4500, 100)
			sch := te.env.Store.Schema()
			aggs := []*agg.Aggregate{agg.CountAll()}
			e, err := New(name, sch, aggs, cfg(141))
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 3; round++ {
				sess := te.iface.NewSession(g)
				if err := e.Step(sess); err != nil {
					t.Fatalf("%s G=%d round %d: %v", name, g, round, err)
				}
				if sess.Used() > g {
					t.Fatalf("%s G=%d: used %d", name, g, sess.Used())
				}
			}
		}
	}
}
