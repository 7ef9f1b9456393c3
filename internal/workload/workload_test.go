package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

func TestAutosLikeNShape(t *testing.T) {
	d := AutosLikeN(1, 5000, 10)
	if d.Schema.M() != 10 {
		t.Fatalf("M = %d", d.Schema.M())
	}
	if len(d.Pool) != 5000 {
		t.Fatalf("pool = %d", len(d.Pool))
	}
	if d.Schema.DomainSize(0) != 38 || d.Schema.DomainSize(9) != 13 {
		t.Errorf("domain sizes wrong: %d %d", d.Schema.DomainSize(0), d.Schema.DomainSize(9))
	}
	// Distinctness.
	seen := make(map[string]bool)
	for _, tu := range d.Pool {
		k := tu.Key()
		if seen[k] {
			t.Fatalf("duplicate tuple in pool: %v", tu)
		}
		seen[k] = true
		if err := d.Schema.Validate(tu.Vals); err != nil {
			t.Fatalf("invalid pool tuple: %v", err)
		}
		if len(tu.Aux) != 1 || tu.Aux[0] <= 0 {
			t.Fatalf("missing price payload: %v", tu.Aux)
		}
	}
}

func TestAutosLikeSkew(t *testing.T) {
	d := AutosLikeN(2, 20000, 6)
	// Value 0 of attribute 0 must be notably more frequent than value 10
	// (Zipf-ish skew).
	c0, c10 := 0, 0
	for _, tu := range d.Pool {
		switch tu.Vals[0] {
		case 0:
			c0++
		case 10:
			c10++
		}
	}
	if c0 <= 2*c10 {
		t.Errorf("skew missing: count(v0)=%d count(v10)=%d", c0, c10)
	}
}

func TestAutosLikeDeterministic(t *testing.T) {
	a := AutosLikeN(7, 1000, 8)
	b := AutosLikeN(7, 1000, 8)
	for i := range a.Pool {
		if schema.CompareVals(a.Pool[i].Vals, b.Pool[i].Vals) != 0 {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestScalableAndBoolean(t *testing.T) {
	d := Scalable(3, 2000, 12, 4)
	if d.Schema.M() != 12 || len(d.Pool) != 2000 {
		t.Fatalf("scalable shape wrong")
	}
	b := Boolean(4, 500, 30)
	for _, tu := range b.Pool {
		for _, v := range tu.Vals {
			if v > 1 {
				t.Fatalf("boolean dataset has value %d", v)
			}
		}
	}
}

func TestGeneratePanicsWhenTooDense(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for over-dense request")
		}
	}()
	Scalable(5, 600, 5, 3) // 3^5 = 243 < 2*600
}

func TestEnvInitialAndChurn(t *testing.T) {
	d := AutosLikeN(10, 3000, 8)
	env, err := NewEnv(d, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 2000 {
		t.Fatalf("initial size = %d", env.Store.Size())
	}

	if err := env.InsertFromPool(100); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 2100 {
		t.Errorf("size after insert = %d", env.Store.Size())
	}
	if err := env.DeleteRandom(50); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 2050 {
		t.Errorf("size after delete = %d", env.Store.Size())
	}
	if err := env.DeleteFraction(0.1); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 2050-205 {
		t.Errorf("size after fractional delete = %d", env.Store.Size())
	}

	// Distinctness after churn.
	seen := make(map[string]bool)
	dup := false
	env.Store.ForEach(func(tu *schema.Tuple) {
		if seen[tu.Key()] {
			dup = true
		}
		seen[tu.Key()] = true
	})
	if dup {
		t.Error("duplicate tuples after churn")
	}
}

func TestEnvPoolExhaustionFallsBackToFresh(t *testing.T) {
	d := AutosLikeN(12, 500, 8)
	env, err := NewEnv(d, 450, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Only 50 pool tuples free; ask for 200.
	if err := env.InsertFromPool(200); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 650 {
		t.Errorf("size = %d, want 650", env.Store.Size())
	}
	seen := make(map[string]bool)
	env.Store.ForEach(func(tu *schema.Tuple) {
		if seen[tu.Key()] {
			t.Fatal("duplicate after pool exhaustion")
		}
		seen[tu.Key()] = true
	})
}

func TestEnvDeterministicEvolution(t *testing.T) {
	run := func() []int {
		d := AutosLikeN(20, 2000, 8)
		env, err := NewEnv(d, 1500, 21)
		if err != nil {
			t.Fatal(err)
		}
		sched := PoolChurn(30, 0.01)
		var sizes []int
		for round := 2; round <= 6; round++ {
			if err := sched(round, env); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, env.Store.Size())
		}
		return sizes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("evolution not deterministic: %v vs %v", a, b)
		}
	}
}

func TestSchedules(t *testing.T) {
	d := AutosLikeN(30, 4000, 8)
	env, err := NewEnv(d, 1000, 31)
	if err != nil {
		t.Fatal(err)
	}

	if env.Store.Size() != 1000 {
		t.Errorf("initial db: %d", env.Store.Size())
	}

	if err := NetChange(100)(2, env); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 1100 {
		t.Errorf("NetChange(+100): %d", env.Store.Size())
	}
	if err := NetChange(-200)(3, env); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 900 {
		t.Errorf("NetChange(-200): %d", env.Store.Size())
	}

	if err := FreshChurn(50, 0.1)(4, env); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != 900-90+50 {
		t.Errorf("FreshChurn: %d", env.Store.Size())
	}

	before := env.Store.Size()
	if err := env.RegenerateAll(); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != before {
		t.Errorf("RegenerateAll altered size: %d -> %d", before, env.Store.Size())
	}

	combo := Compose(NetChange(10), NetChange(-5))
	before = env.Store.Size()
	if err := combo(6, env); err != nil {
		t.Fatal(err)
	}
	if env.Store.Size() != before+5 {
		t.Errorf("Compose: %d, want %d", env.Store.Size(), before+5)
	}
}

func TestMutateAux(t *testing.T) {
	d := AutosLikeN(40, 1000, 8)
	env, err := NewEnv(d, 800, 41)
	if err != nil {
		t.Fatal(err)
	}
	sum := func() float64 {
		var s float64
		env.Store.ForEach(func(tu *schema.Tuple) { s += tu.Aux[0] })
		return s
	}
	before := sum()
	if err := env.MutateAux(0.5, func(aux []float64, _ *rand.Rand) { aux[0] *= 0.5 }); err != nil {
		t.Fatal(err)
	}
	after := sum()
	if after >= before {
		t.Errorf("aux mutation had no effect: %v -> %v", before, after)
	}
	// Roughly half the price mass should have been halved: after ≈ 0.75·before.
	if after < 0.6*before || after > 0.9*before {
		t.Errorf("unexpected mutation magnitude: %v -> %v", before, after)
	}
	if env.Store.Size() != 800 {
		t.Errorf("MutateAux changed size: %d", env.Store.Size())
	}
}

func TestNewEnvErrors(t *testing.T) {
	d := AutosLikeN(50, 100, 8)
	if _, err := NewEnv(d, 200, 51); err == nil {
		t.Error("initial > pool accepted")
	}
}

// Deleted pool tuples must return to the pool and be re-insertable
// without ever creating a duplicate in the database.
func TestPoolRecyclingInvariant(t *testing.T) {
	d := AutosLikeN(60, 2000, 8)
	env, err := NewEnv(d, 1500, 61)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		if err := env.DeleteRandom(120); err != nil {
			t.Fatal(err)
		}
		if err := env.InsertFromPool(120); err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool, env.Store.Size())
		dup := false
		env.Store.ForEach(func(tu *schema.Tuple) {
			if seen[tu.Key()] {
				dup = true
			}
			seen[tu.Key()] = true
		})
		if dup {
			t.Fatalf("duplicate tuple after recycle round %d", round)
		}
		if env.Store.Size() != 1500 {
			t.Fatalf("size drifted: %d", env.Store.Size())
		}
	}
}

// DeleteWhere must only remove matching tuples.
func TestDeleteWhere(t *testing.T) {
	d := AutosLikeN(70, 3000, 8)
	env, err := NewEnv(d, 2500, 71)
	if err != nil {
		t.Fatal(err)
	}
	isV0 := func(tu *schema.Tuple) bool { return tu.Vals[0] == 0 }
	count := func(pred func(*schema.Tuple) bool) int {
		n := 0
		env.Store.ForEach(func(tu *schema.Tuple) {
			if pred(tu) {
				n++
			}
		})
		return n
	}
	matchBefore := count(isV0)
	otherBefore := env.Store.Size() - matchBefore
	if err := env.DeleteWhere(0.5, isV0); err != nil {
		t.Fatal(err)
	}
	matchAfter := count(isV0)
	otherAfter := env.Store.Size() - matchAfter
	if otherAfter != otherBefore {
		t.Errorf("non-matching tuples deleted: %d -> %d", otherBefore, otherAfter)
	}
	if matchAfter != matchBefore-matchBefore/2 {
		t.Errorf("matching deletions wrong: %d -> %d", matchBefore, matchAfter)
	}
}

// contents maps every tuple a store holds from its ID to its values and
// aux payload.
func contents(forEach func(func(*schema.Tuple))) map[uint64]string {
	out := make(map[uint64]string)
	forEach(func(tu *schema.Tuple) { out[tu.ID] = fmt.Sprint(tu.Vals, tu.Aux) })
	return out
}

// Environments built from one Dataset with the same seed must evolve
// identically, also once the pool runs dry: one environment's fresh draws
// must not change what the next one draws. Fig 4 builds one environment
// per mode from each trial's dataset, and many tests build several.
func TestEnvsFromOneDatasetEvolveIdentically(t *testing.T) {
	d := AutosLikeN(1, 40000, 38)
	a, err := NewEnv(d, 36000, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(d, 36000, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := PoolChurn(300, 0.001)
	for round := 2; round <= 51; round++ {
		for _, env := range []*Env{a, b} {
			if err := sched(round, env); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(contents(a.Store.ForEach), contents(b.Store.ForEach)) {
		t.Fatal("two environments from one dataset hold different tuples after 50 rounds")
	}
}

// An Env and a ShardedEnv built from the same (data, initial, seed) hold
// the same tuples under the same IDs through churn past pool exhaustion.
// Each round deletes more than two tuples, so Env samples its victims
// from the ID list as ShardedEnv does rather than one by one.
func TestShardedEnvMirrorsEnv(t *testing.T) {
	d := AutosLikeN(80, 3000, 8)
	env, err := NewEnv(d, 2500, 81)
	if err != nil {
		t.Fatal(err)
	}
	senv, err := NewShardedEnv(d, 2500, 81, 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 30; round++ {
		if err := env.DeleteRandom(25); err != nil {
			t.Fatal(err)
		}
		if err := env.InsertFromPool(60); err != nil {
			t.Fatal(err)
		}
		if err := senv.DeleteRandom(25); err != nil {
			t.Fatal(err)
		}
		if err := senv.InsertFromPool(60); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(contents(env.Store.ForEach), contents(senv.Store.ForEach)) {
			t.Fatalf("round %d: Env and ShardedEnv hold different tuples", round)
		}
	}
	if len(senv.free) != 0 {
		t.Fatalf("pool still holds %d free tuples: churn never drew a fresh one", len(senv.free))
	}
}

// Environments on different goroutines may draw fresh tuples from one
// Dataset at once; run under -race.
func TestDatasetSharedAcrossGoroutines(t *testing.T) {
	d := AutosLikeN(90, 2000, 8)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			env, err := NewEnv(d, 1800, int64(91+g))
			for round := 2; round <= 11 && err == nil; round++ {
				err = PoolChurn(100, 0.01)(round, env)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
