package estimator

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/schema"
)

// roundTrip saves and reloads an estimator.
func roundTrip(t *testing.T, e Estimator, te *testEnv) Estimator {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(e, &buf); err != nil {
		t.Fatal(err)
	}
	aggs := e.Aggregates()
	restored, err := Load(&buf, te.env.Store.Schema(), aggs, cfg(999))
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestSaveLoadPreservesEstimates(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func(te *testEnv) (Estimator, error)
	}{
		{"RESTART", func(te *testEnv) (Estimator, error) {
			return NewRestart(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(301))
		}},
		{"REISSUE", func(te *testEnv) (Estimator, error) {
			return NewReissue(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(301))
		}},
		{"RS", func(te *testEnv) (Estimator, error) {
			c := cfg(301)
			c.DeltaTarget = true
			return NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, c)
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			te := newTestEnv(t, 300, 15000, 13000, 100)
			e, err := mk.new(te)
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 4; round++ {
				if round > 1 {
					if err := te.env.InsertFromPool(200); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Step(te.iface.NewSession(300)); err != nil {
					t.Fatal(err)
				}
			}
			want, wantOK := e.Estimate(0)
			wantDelta, wantDeltaOK := e.EstimateDelta(0)

			restored := roundTrip(t, e, te)
			if restored.Name() != e.Name() {
				t.Fatalf("algo = %s", restored.Name())
			}
			if restored.Round() != 4 {
				t.Errorf("round = %d", restored.Round())
			}
			if restored.DrillDowns() != e.DrillDowns() {
				t.Errorf("drills = %d vs %d", restored.DrillDowns(), e.DrillDowns())
			}
			got, ok := restored.Estimate(0)
			if ok != wantOK || got.Value != want.Value || got.Variance != want.Variance {
				t.Errorf("estimate mismatch: %+v vs %+v", got, want)
			}
			gotDelta, dOK := restored.EstimateDelta(0)
			if dOK != wantDeltaOK || (dOK && gotDelta.Value != wantDelta.Value) {
				t.Errorf("delta mismatch: %+v vs %+v", gotDelta, wantDelta)
			}

			// The restored estimator keeps tracking sensibly.
			if err := te.env.InsertFromPool(200); err != nil {
				t.Fatal(err)
			}
			if err := restored.Step(te.iface.NewSession(300)); err != nil {
				t.Fatal(err)
			}
			est, ok := restored.Estimate(0)
			if !ok {
				t.Fatal("no estimate after restored step")
			}
			truth := float64(te.env.Store.Size())
			if rel := math.Abs(est.Value-truth) / truth; rel > 0.5 {
				t.Errorf("restored tracking rel err %.2f", rel)
			}
			if restored.Round() != 5 {
				t.Errorf("restored round = %d", restored.Round())
			}
		})
	}
}

// A restored REISSUE continues from the same pool: on a static database
// the next round's estimate equals the pre-save estimate exactly.
func TestSaveLoadReissueContinuity(t *testing.T) {
	te := newTestEnv(t, 310, 15000, 15000, 100)
	e, err := NewReissue(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(311))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := e.Step(te.iface.NewSession(120)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := e.Estimate(0)
	beforePool := e.PoolSize()

	restored := roundTrip(t, e, te).(*Reissue)
	if restored.PoolSize() != beforePool {
		t.Fatalf("pool %d vs %d", restored.PoolSize(), beforePool)
	}
	if err := restored.Step(te.iface.NewSession(120)); err != nil {
		t.Fatal(err)
	}
	after, _ := restored.Estimate(0)
	// Static database + same signature pool (modulo which were updated
	// within budget) → estimates agree closely.
	if math.Abs(after.Value-before.Value) > 0.25*before.Value {
		t.Errorf("continuity broken: %.0f -> %.0f", before.Value, after.Value)
	}
}

func TestLoadValidation(t *testing.T) {
	te := newTestEnv(t, 320, 5000, 4500, 100)
	e, err := NewReissue(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(321))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(te.iface.NewSession(100)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(e, &buf); err != nil {
		t.Fatal(err)
	}

	// Wrong aggregate count.
	two := []*agg.Aggregate{agg.CountAll(), agg.CountAll()}
	if _, err := Load(bytes.NewReader(buf.Bytes()), te.env.Store.Schema(), two, cfg(322)); err == nil {
		t.Error("aggregate count mismatch accepted")
	}
	// Garbage input.
	if _, err := Load(bytes.NewReader([]byte("junk")), te.env.Store.Schema(),
		[]*agg.Aggregate{agg.CountAll()}, cfg(323)); err == nil {
		t.Error("garbage snapshot accepted")
	}
	// A snapshot naming no algorithm or an unknown one, or written in
	// another format version, or one that does not fit the estimator's
	// tree (depth 8) or aggregate count.
	for _, bad := range []func(s *snapshot){
		func(s *snapshot) { s.Algo = "" },
		func(s *snapshot) { s.Algo = "BOGUS" },
		func(s *snapshot) { s.Version = snapshotVersion + 1 },
		func(s *snapshot) { s.Pool[0].Cur.Depth = 99 },
		func(s *snapshot) { s.Pool[0].Cur.Depth = -1 },
		func(s *snapshot) { s.Pool[0].Sig = s.Pool[0].Sig[:2] },
		func(s *snapshot) { s.Pool[0].Sig[0] = 60000 },
		func(s *snapshot) { s.Pool[0].Cur.Pairs = nil },
		func(s *snapshot) { s.Pool[0].Cur.Prob *= 2 },
		func(s *snapshot) { s.Pool[0].Cur.Round = 0 },
		func(s *snapshot) { s.Pool[0].Cur.Round = s.Round + 1 },
		func(s *snapshot) { s.Estimates = nil },
		func(s *snapshot) { s.Deltas = append(s.Deltas, snapEstimate{}) },
		func(s *snapshot) { s.Pool[0].Cur.Tuples = []*schema.Tuple{{ID: 1}} },
	} {
		var snap snapshot
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		bad(&snap)
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		e, err := Load(&b, te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(324))
		if err == nil || e != nil {
			t.Errorf("snapshot algorithm %q version %d accepted", snap.Algo, snap.Version)
		}
	}
}

// fuzzLoadAggs is the aggregate set every FuzzLoad corpus checkpoint was
// saved with: two aggregates, so a one-pair contribution is a misfit.
func fuzzLoadAggs() []*agg.Aggregate {
	return []*agg.Aggregate{agg.CountAll(), agg.SumOf("aux0", agg.AuxField(0))}
}

// FuzzLoad: for any bytes, Load either refuses them — returning no
// estimator — or returns one that survives Estimate and EstimateDelta
// for every aggregate and one Step. The corpus under
// testdata/fuzz/FuzzLoad holds a two-round checkpoint per algorithm
// saved on this env with fuzzLoadAggs, a truncated one, and tampered
// ones that each panicked or loaded silently wrong before Load checked
// that a checkpoint fits its estimator.
func FuzzLoad(f *testing.F) {
	te := newTestEnv(f, 330, 1200, 1000, 20)
	sch, aggs := te.env.Store.Schema(), fuzzLoadAggs()
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Load(bytes.NewReader(b), sch, aggs, cfg(331))
		if err != nil {
			if e != nil {
				t.Fatalf("Load returned an estimator with its error %v", err)
			}
			return
		}
		for i := range aggs {
			e.Estimate(i)
			e.EstimateDelta(i)
		}
		if err := e.Step(te.iface.NewSession(60)); err != nil {
			t.Fatalf("Step after Load: %v", err)
		}
	})
}

// swapRand replaces the estimator's round RNG mid-run, simulating the
// fresh Config.Rand a Load gets (the snapshot never carries RNG state).
func swapRand(t *testing.T, e Estimator, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	switch v := e.(type) {
	case *Restart:
		v.cfg.Rand = r
	case *Reissue:
		v.cfg.Rand = r
	case *RS:
		v.cfg.Rand = r
	default:
		t.Fatalf("unknown estimator %T", e)
	}
}

// TestCheckpointResumeByteIdenticalUnderExecutor is the crash/resume
// guarantee the tracking service relies on: a run that checkpoints after
// round 2 and resumes in a NEW estimator — continuing under the
// concurrent executor — produces byte-identical per-round estimates to a
// run that never stopped, for all three estimators and for every
// executor parallelism. (Both runs switch to the same fresh RNG at the
// boundary, since persistence deliberately does not serialise RNG state.)
func TestCheckpointResumeByteIdenticalUnderExecutor(t *testing.T) {
	const (
		seed             = 9100
		preRounds        = 2
		postRounds       = 3
		g                = 250
		boundarySeed     = 5511
		churnIns         = 180
		churnDelFraction = 0.01
	)
	aggs := func() []*agg.Aggregate { return []*agg.Aggregate{agg.CountAll()} }
	churn := func(t *testing.T, te *testEnv) {
		t.Helper()
		if err := te.env.InsertFromPool(churnIns); err != nil {
			t.Fatal(err)
		}
		if err := te.env.DeleteFraction(churnDelFraction); err != nil {
			t.Fatal(err)
		}
	}
	build := func(t *testing.T, algo string, te *testEnv) Estimator {
		t.Helper()
		e, err := New(algo, te.env.Store.Schema(), aggs(), cfg(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	for _, algo := range []string{"RESTART", "REISSUE", "RS"} {
		t.Run(algo, func(t *testing.T) {
			// Uninterrupted reference run (sequential executor).
			teA := newTestEnv(t, seed, 12000, 10500, 100)
			eA := build(t, algo, teA)
			for round := 1; round <= preRounds; round++ {
				if round > 1 {
					churn(t, teA)
				}
				if err := eA.Step(teA.iface.NewSession(g)); err != nil {
					t.Fatal(err)
				}
			}
			swapRand(t, eA, boundarySeed)
			var want []stepRecord
			for round := 0; round < postRounds; round++ {
				churn(t, teA)
				if err := eA.Step(teA.iface.NewSession(g)); err != nil {
					t.Fatal(err)
				}
				want = append(want, recordStep(eA, 1))
			}

			// Interrupted runs: same prefix, Save, Load into a fresh
			// estimator, continue at parallelism 1 and 4.
			for _, par := range []int{1, 4} {
				teB := newTestEnv(t, seed, 12000, 10500, 100)
				eB := build(t, algo, teB)
				for round := 1; round <= preRounds; round++ {
					if round > 1 {
						churn(t, teB)
					}
					if err := eB.Step(teB.iface.NewSession(g)); err != nil {
						t.Fatal(err)
					}
				}
				var buf bytes.Buffer
				if err := Save(eB, &buf); err != nil {
					t.Fatal(err)
				}
				lcfg := cfg(boundarySeed)
				lcfg.Parallelism = par
				resumed, err := Load(&buf, teB.env.Store.Schema(), aggs(), lcfg)
				if err != nil {
					t.Fatal(err)
				}
				var got []stepRecord
				for round := 0; round < postRounds; round++ {
					churn(t, teB)
					if err := resumed.Step(teB.iface.NewSession(g)); err != nil {
						t.Fatal(err)
					}
					got = append(got, recordStep(resumed, 1))
				}
				compareRuns(t, fmt.Sprintf("%s resume par=%d", algo, par), want, got)
			}
		})
	}
}

func TestSaveLoadRetainedTuplesSurvive(t *testing.T) {
	te := newTestEnv(t, 330, 8000, 7500, 100)
	c := cfg(331)
	c.RetainTuples = true
	e, err := NewRS(te.env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(te.iface.NewSession(400)); err != nil {
		t.Fatal(err)
	}
	truth := agg.SumOf("x", agg.AuxField(0)).Truth(te.env.Store)

	restored := roundTrip(t, e, te).(*RS)
	est, err := restored.AdHoc(agg.SumOf("SUM(price)@R1", agg.AuxField(0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth) / truth; rel > 0.9 {
		t.Errorf("ad hoc after reload rel err %.2f", rel)
	}
}
