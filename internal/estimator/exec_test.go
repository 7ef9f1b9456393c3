package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// stepRecord captures everything estimator-observable after one Step.
type stepRecord struct {
	est     []Estimate
	estOK   []bool
	delta   []Estimate
	deltaOK []bool
	used    int
	drills  int
}

func recordStep(e Estimator, nAggs int) stepRecord {
	r := stepRecord{used: e.UsedLastRound(), drills: e.DrillDowns()}
	for i := 0; i < nAggs; i++ {
		est, ok := e.Estimate(i)
		r.est = append(r.est, est)
		r.estOK = append(r.estOK, ok)
		d, ok := e.EstimateDelta(i)
		r.delta = append(r.delta, d)
		r.deltaOK = append(r.deltaOK, ok)
	}
	return r
}

// estimatesEqual compares two estimates bit-for-bit (NaN-safe).
func estimatesEqual(a, b Estimate) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Value, b.Value) && eq(a.Variance, b.Variance) &&
		eq(a.Pair.SumF, b.Pair.SumF) && eq(a.Pair.Count, b.Pair.Count) &&
		a.Drills == b.Drills
}

func compareRuns(t *testing.T, label string, want, got []stepRecord) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d rounds", label, len(want), len(got))
	}
	for round := range want {
		w, g := want[round], got[round]
		if w.used != g.used || w.drills != g.drills {
			t.Fatalf("%s round %d: used/drills (%d,%d) vs (%d,%d)",
				label, round+1, w.used, w.drills, g.used, g.drills)
		}
		for i := range w.est {
			if w.estOK[i] != g.estOK[i] || !estimatesEqual(w.est[i], g.est[i]) {
				t.Fatalf("%s round %d agg %d: estimate %+v (ok=%v) vs %+v (ok=%v)",
					label, round+1, i, w.est[i], w.estOK[i], g.est[i], g.estOK[i])
			}
			if w.deltaOK[i] != g.deltaOK[i] || (w.deltaOK[i] && !estimatesEqual(w.delta[i], g.delta[i])) {
				t.Fatalf("%s round %d agg %d: delta %+v vs %+v", label, round+1, i, w.delta[i], g.delta[i])
			}
		}
	}
}

func newAlgo(t *testing.T, algo string, te *testEnv, c Config, aggs []*agg.Aggregate) Estimator {
	t.Helper()
	e, err := New(algo, te.env.Store.Schema(), aggs, c)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var equivAggs = func() []*agg.Aggregate {
	return []*agg.Aggregate{agg.CountAll(), agg.SumOf("SUM(price)", agg.AuxField(0))}
}

// runLocalRounds executes one full tracking run (fresh environment, fresh
// estimator, deterministic churn) at the given executor parallelism.
func runLocalRounds(t *testing.T, algo string, seed int64, par, rounds, g int) []stepRecord {
	t.Helper()
	te := newTestEnv(t, seed, 8000, 7000, 100)
	c := cfg(seed + 7)
	c.Parallelism = par
	aggs := equivAggs()
	e := newAlgo(t, algo, te, c, aggs)
	var recs []stepRecord
	for round := 1; round <= rounds; round++ {
		if round > 1 {
			if err := te.env.InsertFromPool(150); err != nil {
				t.Fatal(err)
			}
			if err := te.env.DeleteFraction(0.01); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Step(te.iface.NewSession(g)); err != nil {
			t.Fatalf("%s round %d: %v", algo, round, err)
		}
		recs = append(recs, recordStep(e, len(aggs)))
	}
	return recs
}

// TestExecutorParallelismEquivalenceLocal is the seeded equivalence fuzz
// over the local engine: for every estimator and several (seed, budget)
// draws, per-round estimates must be byte-identical at Parallelism 1, 2
// and 8 — the executor's core guarantee.
func TestExecutorParallelismEquivalenceLocal(t *testing.T) {
	fuzz := rand.New(rand.NewSource(20260728))
	for _, algo := range []string{"RESTART", "REISSUE", "RS"} {
		for trial := 0; trial < 3; trial++ {
			seed := int64(1000 + fuzz.Intn(100000))
			g := 60 + fuzz.Intn(300)
			name := fmt.Sprintf("%s/seed=%d/G=%d", algo, seed, g)
			t.Run(name, func(t *testing.T) {
				base := runLocalRounds(t, algo, seed, 1, 4, g)
				for _, par := range []int{2, 8} {
					got := runLocalRounds(t, algo, seed, par, 4, g)
					compareRuns(t, fmt.Sprintf("%s par=%d", name, par), base, got)
				}
			})
		}
	}
}

// runRemoteRounds is runLocalRounds against a remote Searcher: a fresh
// webiface.Handler server per run (identical seeds ⇒ identical database
// evolution), with the round budget enforced client-side so concurrent
// walks cannot race a server-side 429. With local=true the same database
// is tracked through a local session instead, for the lossless-wire
// comparison.
func runRemoteRounds(t *testing.T, algo string, seed int64, par, rounds, g int, local bool) []stepRecord {
	t.Helper()
	data := workload.AutosLikeN(seed, 4000, 8)
	env, err := workload.NewEnv(data, 3600, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	srv := httptest.NewServer(webiface.NewHandler(iface))
	defer srv.Close()
	c, err := webiface.Dial(srv.URL, webiface.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newSession := func() Session { return c.NewSession(g) }
	sch := c.Schema()
	if local {
		newSession = func() Session { return iface.NewSession(g) }
		sch = env.Store.Schema()
	}

	ecfg := cfg(seed + 7)
	ecfg.Parallelism = par
	aggs := equivAggs()
	e, err := New(algo, sch, aggs, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []stepRecord
	for round := 1; round <= rounds; round++ {
		if round > 1 {
			if err := env.InsertFromPool(150); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Step(newSession()); err != nil {
			t.Fatalf("%s round %d: %v", algo, round, err)
		}
		recs = append(recs, recordStep(e, len(aggs)))
	}
	return recs
}

// TestExecutorParallelismEquivalenceRemote proves the same guarantee over
// a remote Searcher (webiface.Client sharing one session across walk
// goroutines), and additionally that the remote run matches the local run
// on the same database — the wire format is lossless.
func TestExecutorParallelismEquivalenceRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("remote equivalence is slow")
	}
	const seed, rounds, g = 4242, 3, 150
	for _, algo := range []string{"RESTART", "REISSUE", "RS"} {
		t.Run(algo, func(t *testing.T) {
			base := runRemoteRounds(t, algo, seed, 1, rounds, g, false)
			for _, par := range []int{2, 8} {
				got := runRemoteRounds(t, algo, seed, par, rounds, g, false)
				compareRuns(t, fmt.Sprintf("remote par=%d", par), base, got)
			}
			local := runRemoteRounds(t, algo, seed, 1, rounds, g, true)
			compareRuns(t, "remote vs local", local, base)
		})
	}
}

// TestExecutorSequentialFallbackWithHook: a session with a pre-search
// hook declares itself non-concurrent, so a Parallelism=8 estimator must
// silently run it sequentially — the hook sees a strictly increasing
// query index.
func TestExecutorSequentialFallbackWithHook(t *testing.T) {
	te := newTestEnv(t, 777, 6000, 5500, 100)
	c := cfg(778)
	c.Parallelism = 8
	e := newAlgo(t, "REISSUE", te, c, []*agg.Aggregate{agg.CountAll()})
	for round := 1; round <= 2; round++ {
		sess := te.iface.NewSession(200)
		last := -1
		ordered := true
		sess.SetPreSearchHook(func(qi int) {
			if qi != last+1 {
				ordered = false
			}
			last = qi
		})
		if err := e.Step(sess); err != nil {
			t.Fatal(err)
		}
		if !ordered {
			t.Fatal("hooked session saw out-of-order query indices: executor did not fall back to sequential")
		}
		if last+1 != sess.Used() {
			t.Fatalf("hook saw %d queries, session used %d", last+1, sess.Used())
		}
	}
}

// TestExecutorBudgetNeverExceededConcurrent: the wave/tail accounting
// must respect G exactly even at high parallelism and tiny budgets.
func TestExecutorBudgetNeverExceededConcurrent(t *testing.T) {
	for _, g := range []int{1, 3, 17, 120} {
		for _, algo := range []string{"RESTART", "REISSUE", "RS"} {
			te := newTestEnv(t, 888, 6000, 5500, 100)
			c := cfg(889)
			c.Parallelism = 8
			e := newAlgo(t, algo, te, c, []*agg.Aggregate{agg.CountAll()})
			for round := 1; round <= 3; round++ {
				sess := te.iface.NewSession(g)
				if err := e.Step(sess); err != nil {
					t.Fatalf("%s G=%d round %d: %v", algo, g, round, err)
				}
				if sess.Used() > g {
					t.Fatalf("%s G=%d: used %d", algo, g, sess.Used())
				}
				if e.UsedLastRound() != sess.Used() {
					t.Fatalf("%s G=%d: UsedLastRound=%d session=%d", algo, g, e.UsedLastRound(), sess.Used())
				}
			}
		}
	}
}
