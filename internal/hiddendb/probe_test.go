package hiddendb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// probeDomains shapes the probe stores: with k = 20 and ~2,000 tuples,
// full-tree nodes overflow down to depth 2 or 3, so every query family
// has overflowing and non-overflowing members. The last attribute is
// nullable.
var probeDomains = []int{3, 4, 5, 6}

// probeQueries draws the three query families a probe can be: full-tree
// nodes (a canonical prefix of random depth), selection-tree nodes (one
// fixed predicate plus a prefix of the remaining attributes) and random
// conjunctions, NULL predicates included.
func probeQueries(rng *rand.Rand, sch *schema.Schema, n int) []Query {
	qs := make([]Query, 0, n)
	for len(qs) < n {
		var preds []Pred
		switch len(qs) % 3 {
		case 0:
			for a, depth := 0, rng.Intn(sch.M()+1); a < depth; a++ {
				preds = append(preds, Pred{Attr: a, Val: uint16(rng.Intn(sch.DomainSize(a)))})
			}
		case 1:
			fixed := rng.Intn(sch.M())
			preds = append(preds, Pred{Attr: fixed, Val: uint16(rng.Intn(sch.DomainSize(fixed)))})
			for a, depth := 0, rng.Intn(sch.M()); a < sch.M() && depth > 0; a++ {
				if a != fixed {
					preds = append(preds, Pred{Attr: a, Val: uint16(rng.Intn(sch.DomainSize(a)))})
					depth--
				}
			}
		default:
			qs = append(qs, randomQueryOver(rng, sch))
			continue
		}
		qs = append(qs, NewQuery(preds...))
	}
	return qs
}

// barePrefix reports whether q plans as a bare tuple range: the root, or
// a canonical prefix when broad-match NULL does not rule prefixes out.
func barePrefix(q Query, broad bool) bool {
	return q.prefixLen() == q.Len() && (!broad || q.Len() == 0)
}

// checkProbe asserts the probe contract for one query answered both ways
// on the same data: the overflow flag agrees; an overflowing answer of a
// query that plans as a bare range carries no tuples; every other answer
// is identical.
func checkProbe(t *testing.T, q Query, broad bool, probe, full Result) {
	t.Helper()
	if probe.Overflow != full.Overflow {
		t.Fatalf("%v: probe overflow %v, search overflow %v", q, probe.Overflow, full.Overflow)
	}
	if full.Overflow && barePrefix(q, broad) {
		if len(probe.Tuples) != 0 {
			t.Fatalf("%v: range-decided probe carries %d tuples", q, len(probe.Tuples))
		}
		return
	}
	if !reflect.DeepEqual(probe, full) {
		t.Fatalf("%v: probe %s, search %s", q, resultSignature(probe), resultSignature(full))
	}
}

// TestRangeCountMatchesPlan: rangeCount decides exactly the queries
// plan answers as a bare tuple range, and counts them exactly.
func TestRangeCountMatchesPlan(t *testing.T) {
	for _, broad := range []bool{false, true} {
		st := newNullableTestStore(t, 51, 2000, probeDomains, 0.1)
		st.SetBroadMatchNull(broad)
		s := st.Snapshot()
		for _, q := range probeQueries(rand.New(rand.NewSource(52)), st.Schema(), 300) {
			n, ok := s.rangeCount(q)
			sc := getScratch()
			pln := s.plan(q, strategyAuto, sc)
			putScratch(sc)
			if bare := !pln.postings && len(pln.rest) == 0; ok != bare {
				t.Fatalf("broad=%v %v: rangeCount ok=%v, plan is a bare range: %v", broad, q, ok, bare)
			}
			if ok && (n != pln.hi-pln.lo || n != s.CountMatching(q)) {
				t.Fatalf("broad=%v %v: rangeCount %d, plan range %d, CountMatching %d", broad, q, n, pln.hi-pln.lo, s.CountMatching(q))
			}
		}
	}
}

// probeChurn replaces a few tuples of st, deterministically in rng.
func probeChurn(t *testing.T, st *Store, rng *rand.Rand, n int) {
	t.Helper()
	ids := st.IDs()
	var ins []*schema.Tuple
	for i := 0; i < n; i++ {
		vals := make([]uint16, len(probeDomains))
		for a, d := range probeDomains {
			vals[a] = uint16(rng.Intn(d))
		}
		ins = append(ins, &schema.Tuple{ID: st.NextID(), Vals: vals, Aux: []float64{rng.Float64()}})
	}
	if err := st.ApplyBatch(ins, ids[:n]); err != nil {
		t.Fatal(err)
	}
}

// TestProbeAnswersLikeSearch: a probe answers exactly like a search on
// Iface's published path, its ephemeral first-query path and under a
// constant-update hook, with broad-match NULL off and on — except that
// an overflowing bare-range probe carries no tuples.
func TestProbeAnswersLikeSearch(t *testing.T) {
	for _, broad := range []bool{false, true} {
		t.Run(fmt.Sprintf("published/broad=%v", broad), func(t *testing.T) {
			st := newNullableTestStore(t, 61, 2000, probeDomains, 0.1)
			st.SetBroadMatchNull(broad)
			f := NewIface(st, 20, nil)
			rng := rand.New(rand.NewSource(62))
			for i, q := range probeQueries(rng, st.Schema(), 300) {
				if i%100 == 0 {
					probeChurn(t, st, rng, 30)
					f.Snapshot()
				}
				var probe, full Result
				if i%2 == 0 {
					probe, _ = f.Search(q.Probe())
					full, _ = f.Search(q)
				} else {
					full, _ = f.Search(q)
					probe, _ = f.Search(q.Probe())
				}
				checkProbe(t, q, broad, probe, full)
			}
		})
		t.Run(fmt.Sprintf("ephemeral/broad=%v", broad), func(t *testing.T) {
			st := newNullableTestStore(t, 63, 2000, probeDomains, 0.1)
			st.SetBroadMatchNull(broad)
			f := NewIface(st, 20, nil)
			rng := rand.New(rand.NewSource(64))
			for _, q := range probeQueries(rng, st.Schema(), 150) {
				probeChurn(t, st, rng, 1)
				probe, _ := f.Search(q.Probe())
				if s := st.snap.Load(); s != nil && s.version == st.Version() {
					t.Fatal("the probe, the first query of its version, published a snapshot")
				}
				full, _ := f.Search(q)
				checkProbe(t, q, broad, probe, full)
			}
		})
		t.Run(fmt.Sprintf("constant-update/broad=%v", broad), func(t *testing.T) {
			// Two identical stores take the identical mutation before
			// every query: one session probes, the other searches.
			var sess [2]*Session
			for i := range sess {
				st := newNullableTestStore(t, 65, 2000, probeDomains, 0.1)
				st.SetBroadMatchNull(broad)
				hookRng := rand.New(rand.NewSource(66))
				sess[i] = NewIface(st, 20, nil).NewSession(0)
				sess[i].SetPreSearchHook(func(int) { probeChurn(t, st, hookRng, 1) })
			}
			rng := rand.New(rand.NewSource(67))
			for _, q := range probeQueries(rng, sess[0].Schema(), 150) {
				probe, _ := sess[0].Search(q.Probe())
				full, _ := sess[1].Search(q)
				checkProbe(t, q, broad, probe, full)
			}
		})
	}
}

// probeShardedStore is newNullableTestStore partitioned n ways.
func probeShardedStore(t *testing.T, seed int64, n, shards int) *ShardedStore {
	t.Helper()
	flat := newNullableTestStore(t, seed, n, probeDomains, 0.1)
	ss := NewShardedStore(flat.Schema(), shards)
	var all []*schema.Tuple
	flat.ForEach(func(tu *schema.Tuple) { all = append(all, tu) })
	if err := ss.ApplyBatch(all, nil); err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestShardedProbeAnswersLikeSearch is TestProbeAnswersLikeSearch for
// ShardedIface sessions at 1, 4 and 16 shards under churn, on the
// current epoch's cached path and on a superseded epoch's uncached one.
func TestShardedProbeAnswersLikeSearch(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, broad := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/broad=%v", shards, broad), func(t *testing.T) {
				ss := probeShardedStore(t, 71, 2000, shards)
				ss.SetBroadMatchNull(broad)
				f := NewShardedIface(ss, 20, nil)
				rng := rand.New(rand.NewSource(72))
				var prev *Session
				for round := 0; round < 3; round++ {
					sess := f.NewSession(0)
					for _, q := range probeQueries(rng, ss.Schema(), 60) {
						probe, _ := sess.Search(q.Probe())
						full, _ := sess.Search(q)
						checkProbe(t, q, broad, probe, full)
						if prev != nil {
							probe, _ = prev.Search(q.Probe())
							full, _ = prev.Search(q)
							checkProbe(t, q, broad, probe, full)
						}
					}
					prev = sess
					var ins []*schema.Tuple
					for i := 0; i < 40; i++ {
						vals := make([]uint16, len(probeDomains))
						for a, d := range probeDomains {
							vals[a] = uint16(rng.Intn(d))
						}
						ins = append(ins, &schema.Tuple{ID: ss.NextID(), Vals: vals, Aux: []float64{rng.Float64()}})
					}
					if err := ss.ApplyBatch(ins, ss.IDs()[:40]); err != nil {
						t.Fatal(err)
					}
					ss.AdvanceEpoch()
				}
			})
		}
	}
}

// checkCacheSum asserts that every answered query is exactly one hit,
// miss or collapse — count-decided probes included.
func checkCacheSum(t *testing.T, cs CacheStats, total uint64) {
	t.Helper()
	if cs.Hits+cs.Misses+cs.Collapsed != total {
		t.Fatalf("cache %+v sums to %d, TotalQueries is %d", cs, cs.Hits+cs.Misses+cs.Collapsed, total)
	}
}

// TestProbeCacheIsolation: a count-decided probe neither reads nor fills
// the answer cache, so the search after it still gets all k tuples; it
// counts as one miss; and it still counts toward publish-on-second-query.
func TestProbeCacheIsolation(t *testing.T) {
	const k = 20
	st := newTestStore(t, 81, 2000, []int{6, 6, 8, 8})
	f := NewIface(st, k, nil)
	root := NewQuery()

	r, _ := f.Search(root.Probe())
	if !r.Overflow || len(r.Tuples) != 0 {
		t.Fatalf("ephemeral root probe: overflow %v with %d tuples", r.Overflow, len(r.Tuples))
	}
	if cs := f.CacheStats(); cs.Misses != 1 {
		t.Fatalf("ephemeral probe: %+v, want one miss", cs)
	}
	r, _ = f.Search(root)
	if s := st.snap.Load(); s == nil || s.version != st.Version() {
		t.Fatal("the query after a probe did not publish its version")
	}
	if !r.Overflow || len(r.Tuples) != k {
		t.Fatalf("root search after a probe: overflow %v with %d tuples", r.Overflow, len(r.Tuples))
	}
	for i := 0; i < 2; i++ {
		if r, _ := f.Search(root.Probe()); len(r.Tuples) != 0 {
			t.Fatalf("published probe read the cache: %d tuples", len(r.Tuples))
		}
	}
	if r, _ := f.Search(root); len(r.Tuples) != k {
		t.Fatalf("cached root search: %d tuples", len(r.Tuples))
	}
	if cs := f.CacheStats(); cs.Hits != 1 || cs.Misses != 4 {
		t.Fatalf("after probe, search, 2 probes, search: %+v, want 1 hit and 4 misses", cs)
	}

	// A mixed sequence of marked, unmarked and key-bytes lookups.
	rng := rand.New(rand.NewSource(82))
	qs := probeQueries(rng, st.Schema(), 60)
	for i := 0; i < 400; i++ {
		q := qs[rng.Intn(len(qs))]
		switch rng.Intn(4) {
		case 0:
			f.Search(q.Probe())
		case 1:
			f.Search(q)
		case 2:
			f.LookupAnswer(q.AppendKey(nil))
		default:
			f.SearchBatch([]Query{q.Probe(), q})
		}
		if i == 200 {
			probeChurn(t, st, rng, 20)
		}
	}
	checkCacheSum(t, f.CacheStats(), f.TotalQueries())

	ss := probeShardedStore(t, 83, 2000, 4)
	sf := NewShardedIface(ss, k, nil)
	sess := sf.NewSession(0)
	if r, _ := sess.Search(root.Probe()); !r.Overflow || len(r.Tuples) != 0 {
		t.Fatalf("sharded root probe: overflow %v with %d tuples", r.Overflow, len(r.Tuples))
	}
	if r, _ := sess.Search(root); len(r.Tuples) != k {
		t.Fatalf("sharded root search after a probe: %d tuples", len(r.Tuples))
	}
	checkCacheSum(t, sf.CacheStats(), sf.TotalQueries())
}

// TestProbeConcurrent has 32 goroutines mix marked and unmarked queries
// on one Iface; under -race it also proves the probe path shares no
// state it should not.
func TestProbeConcurrent(t *testing.T) {
	st := newNullableTestStore(t, 91, 3000, probeDomains, 0.1)
	f := NewIface(st, 20, nil)
	qs := probeQueries(rand.New(rand.NewSource(92)), st.Schema(), 90)
	want := make([]Result, len(qs))
	for i, q := range qs {
		want[i] = st.Snapshot().Answer(q, 20, DefaultScorer)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range qs {
				j := (i + g*7) % len(qs)
				q := qs[j]
				if (i+g)%2 == 0 {
					q = q.Probe()
				}
				got, _ := f.Search(q)
				if got.Overflow != want[j].Overflow ||
					!(got.Overflow && q.probe && barePrefix(q, false)) && !reflect.DeepEqual(got, want[j]) {
					t.Errorf("%v (probe %v): %s, want %s", q, q.probe, resultSignature(got), resultSignature(want[j]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkCacheSum(t, f.CacheStats(), f.TotalQueries())
}
