package hiddendb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// mirroredStores builds an unsharded Store and an n-way ShardedStore
// holding the identical tuple set (same IDs, vals, aux), plus a churn
// function that applies the identical mutation batch to both.
func mirroredStores(t testing.TB, seed int64, n, shards int, domains []int) (*Store, *ShardedStore, func(insertN, deleteN int)) {
	t.Helper()
	attrs := make([]schema.Attr, len(domains))
	for i, d := range domains {
		dom := make([]string, d)
		for v := range dom {
			dom[v] = fmt.Sprintf("v%d", v)
		}
		attrs[i] = schema.Attr{Name: fmt.Sprintf("S%d", i+1), Domain: dom}
	}
	sch := schema.New(attrs)
	flat := NewStore(sch)
	ss := NewShardedStore(sch, shards)
	rng := rand.New(rand.NewSource(seed))
	gen := func() *schema.Tuple {
		vals := make([]uint16, len(domains))
		for i, d := range domains {
			vals[i] = uint16(rng.Intn(d))
		}
		return &schema.Tuple{ID: flat.NextID(), Vals: vals, Aux: []float64{rng.Float64() * 100}}
	}
	var seedBatch []*schema.Tuple
	for i := 0; i < n; i++ {
		seedBatch = append(seedBatch, gen())
	}
	if err := flat.ApplyBatch(seedBatch, nil); err != nil {
		t.Fatal(err)
	}
	if err := ss.ApplyBatch(seedBatch, nil); err != nil {
		t.Fatal(err)
	}
	churn := func(insertN, deleteN int) {
		var ins []*schema.Tuple
		for i := 0; i < insertN; i++ {
			ins = append(ins, gen())
		}
		ids := flat.IDs()
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if deleteN > len(ids) {
			deleteN = len(ids)
		}
		dels := ids[:deleteN]
		// t.Error, not t.Fatal: churn may run on a mutator goroutine.
		if err := flat.ApplyBatch(ins, dels); err != nil {
			t.Error(err)
			return
		}
		if err := ss.ApplyBatch(ins, dels); err != nil {
			t.Error(err)
			return
		}
	}
	return flat, ss, churn
}

// TestShardedEquivalenceFuzz is the seeded fuzz proof of the sharded
// engine's core guarantee: for every shard count and a database churning
// between rounds, scatter-gather answers are byte-identical to the
// unsharded interface over the same data — tuples, order, overflow flag
// — and CountMatching agrees exactly. Each query runs at the paper's
// k = 1 and at k = 25, under DefaultScorer, AuxScorer(0) and a
// tie-heavy tuple scorer whose ties the cross-shard fold must break by
// ID.
func TestShardedEquivalenceFuzz(t *testing.T) {
	scorers := []struct {
		name string
		fn   Scorer
	}{
		{"default", nil},
		{"aux", AuxScorer(0)},
		{"ties", func(t *schema.Tuple) float64 { return float64(t.Vals[0]) }},
	}
	for _, shards := range []int{1, 4, 16} {
		for seed := int64(90); seed < 93; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				flat, ss, churn := mirroredStores(t, seed, 1200, shards, []int{7, 5, 4, 6})
				type view struct {
					name string
					fi   *Iface
					si   *ShardedIface
				}
				var views []view
				for _, k := range []int{1, 25} {
					for _, sc := range scorers {
						views = append(views, view{fmt.Sprintf("k=%d/%s", k, sc.name),
							NewIface(flat, k, sc.fn), NewShardedIface(ss, k, sc.fn)})
					}
				}
				qrng := rand.New(rand.NewSource(seed * 17))
				for round := 0; round < 4; round++ {
					if round > 0 {
						churn(120, 80)
						ss.AdvanceEpoch()
					}
					for i := 0; i < 60; i++ {
						q := randomQueryOver(qrng, flat.Schema())
						for _, v := range views {
							want, err := v.fi.Search(q)
							if err != nil {
								t.Fatal(err)
							}
							got, err := v.si.Search(q)
							if err != nil {
								t.Fatal(err)
							}
							if resultSignature(got) != resultSignature(want) {
								t.Fatalf("round %d %s query %v: sharded answer diverges\n got %s\nwant %s",
									round, v.name, q, resultSignature(got), resultSignature(want))
							}
						}
						if got, want := ss.CountMatching(q), flat.CountMatching(q); got != want {
							t.Fatalf("round %d: CountMatching %d vs %d", round, got, want)
						}
					}
				}
			})
		}
	}
}

// TestShardedEpochPinning: a session pinned at epoch E keeps answering
// from E — byte-identically — no matter how many epochs advance under
// it, while freshly created sessions see the newest epoch.
func TestShardedEpochPinning(t *testing.T) {
	_, ss, churn := mirroredStores(t, 7, 900, 4, []int{6, 5, 5})
	const k = 20
	si := NewShardedIface(ss, k, nil)
	pinned := si.NewSession(0)
	e0 := ss.Epoch()

	rng := rand.New(rand.NewSource(99))
	queries := make([]Query, 40)
	baseline := make([]string, len(queries))
	for i := range queries {
		queries[i] = randomQueryOver(rng, ss.Schema())
		r, err := pinned.Search(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = resultSignature(r)
	}

	for epoch := 0; epoch < 3; epoch++ {
		churn(150, 100)
		ss.AdvanceEpoch()
		if got := ss.Epoch().Seq(); got != e0.Seq()+uint64(epoch)+1 {
			t.Fatalf("epoch seq %d after %d advances from %d", got, epoch+1, e0.Seq())
		}
		// The pinned session must keep serving epoch e0's answers.
		for i, q := range queries {
			r, err := pinned.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if resultSignature(r) != baseline[i] {
				t.Fatalf("pinned session observed a later epoch (query %d, after %d advances)", i, epoch+1)
			}
		}
	}

	// A fresh session sees the current epoch: at least one answer must
	// differ from the e0 baseline after this much churn.
	fresh := si.NewSession(0)
	changed := false
	for i, q := range queries {
		r, err := fresh.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if resultSignature(r) != baseline[i] {
			changed = true
			_ = i
			break
		}
	}
	if !changed {
		t.Fatal("fresh session still answers from the initial epoch after heavy churn")
	}
}

// TestShardedConcurrentSessions races 32 concurrent sessions against a
// sharded interface while per-shard mutator goroutines churn the store
// and epochs advance. Every session verifies each answer against a
// direct scatter-gather over its own pinned epoch — proving no session
// ever observes two epochs (or a torn one).
func TestShardedConcurrentSessions(t *testing.T) {
	_, ss, churn := mirroredStores(t, 11, 1500, 4, []int{7, 6, 5})
	const k = 25
	si := NewShardedIface(ss, k, nil)

	stop := make(chan struct{})
	var rounds atomic.Uint64
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		// The round driver: per-shard mutator goroutines (inside
		// ApplyBatch via churn) followed by epoch publication.
		defer mutWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			churn(60, 40)
			ss.AdvanceEpoch()
			rounds.Add(1)
		}
	}()

	const sessions = 32
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			sess := si.NewSession(0)
			e := sess.Epoch()
			for i := 0; i < 40; i++ {
				q := randomQueryOver(rng, ss.Schema())
				got, err := sess.Search(q)
				if err != nil {
					errs <- err
					return
				}
				want := e.Answer(q, k, DefaultScorer)
				if resultSignature(got) != resultSignature(want) {
					errs <- fmt.Errorf("session %d query %d: answer not from pinned epoch %d", g, i, e.Seq())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rounds.Load() == 0 {
		t.Log("warning: no epoch advanced during the race window")
	}
}
