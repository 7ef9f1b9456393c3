package hiddendb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dynagg/dynagg/internal/schema"
)

// TestMergePartialsEquivalence is the wire-level half of the
// scatter-gather proof: folding per-shard top-k partials with
// MergePartials — exactly what the multi-process router does with
// decoded shard answers — reconstructs the answer the unsharded engine
// and the in-process ShardedIface give, at every shard count, under
// churn, at the paper's k = 1 and at k = 25.
func TestMergePartialsEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			flat, ss, churn := mirroredStores(t, 41, 1100, shards, []int{7, 5, 4, 6})
			type view struct {
				k  int
				fi *Iface
				si *ShardedIface
				// One single-shard interface per shard store plays the
				// role of the remote shard daemons: its top-k partial is
				// what a daemon would put on the wire.
				parts []*Iface
			}
			var views []view
			for _, k := range []int{1, 25} {
				v := view{k: k, fi: NewIface(flat, k, nil), si: NewShardedIface(ss, k, nil)}
				for i := 0; i < shards; i++ {
					v.parts = append(v.parts, NewIface(ss.Shard(i), k, nil))
				}
				views = append(views, v)
			}
			rng := rand.New(rand.NewSource(43))
			for round := 0; round < 3; round++ {
				if round > 0 {
					churn(130, 90)
					ss.AdvanceEpoch()
				}
				for i := 0; i < 50; i++ {
					q := randomQueryOver(rng, flat.Schema())
					for _, v := range views {
						want, err := v.fi.Search(q)
						if err != nil {
							t.Fatal(err)
						}
						partials := make([]Result, shards)
						for j, p := range v.parts {
							r, err := p.Search(q)
							if err != nil {
								t.Fatal(err)
							}
							partials[j] = r
						}
						got, err := MergePartials(partials, v.k)
						if err != nil {
							t.Fatal(err)
						}
						if resultSignature(got) != resultSignature(want) {
							t.Fatalf("round %d query %v k=%d: merged partials diverge\n got %s\nwant %s",
								round, q, v.k, resultSignature(got), resultSignature(want))
						}
						sgot, err := v.si.Search(q)
						if err != nil {
							t.Fatal(err)
						}
						if resultSignature(got) != resultSignature(sgot) {
							t.Fatalf("round %d query %v k=%d: merge vs ShardedIface diverge", round, q, v.k)
						}
					}
				}
			}
		})
	}
}

// TestMergePartialsOverflow pins the overflow fold rule: any shard
// overflowing forces it, and non-overflowing shards returning more than
// k tuples in total force it — because then the summed count is the
// exact global match count.
func TestMergePartialsOverflow(t *testing.T) {
	mk := func(ids ...uint64) Result {
		r := Result{}
		for _, id := range ids {
			r.Tuples = append(r.Tuples, &schema.Tuple{ID: id, Vals: []uint16{0}})
		}
		return r
	}
	const k = 3
	merge := func(partials ...Result) Result {
		t.Helper()
		got, err := MergePartials(partials, k)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := merge(mk(1, 2), mk(3)); got.Overflow {
		t.Fatalf("total %d <= k=%d must not overflow", 3, k)
	}
	if got := merge(mk(1, 2), mk(3, 4)); !got.Overflow {
		t.Fatalf("total 4 > k=%d must overflow", k)
	}
	over := mk(1, 2, 3)
	over.Overflow = true
	if got := merge(over, mk()); !got.Overflow {
		t.Fatal("any-shard overflow must propagate")
	}
	if got := merge(over, mk()); len(got.Tuples) != 3 {
		t.Fatalf("merged top-k has %d tuples, want 3", len(got.Tuples))
	}
	if got := merge(); got.Overflow || len(got.Tuples) != 0 {
		t.Fatal("empty fold must be an empty non-overflowing result")
	}
}

// TestMergePartialsRefusesOverlap: partials from shards that share a
// tuple ID cannot be merged exactly, so the merge names the ID instead
// of answering with it twice.
func TestMergePartialsRefusesOverlap(t *testing.T) {
	tu := func(id uint64) *schema.Tuple { return &schema.Tuple{ID: id, Vals: []uint16{0}} }
	a := Result{Tuples: []*schema.Tuple{tu(7), tu(8)}}
	b := Result{Tuples: []*schema.Tuple{tu(9), tu(7)}}
	_, err := MergePartials([]Result{a, b}, 10)
	if err == nil || !strings.Contains(err.Error(), "tuple ID 7 twice") {
		t.Fatalf("overlapping partials: err = %v, want one naming tuple ID 7", err)
	}
}

// twoPhaseStore builds a small sharded store for epoch lifecycle tests.
func twoPhaseStore(t *testing.T) (*ShardedStore, func(n int)) {
	t.Helper()
	_, ss, churn := mirroredStores(t, 77, 400, 4, []int{5, 4, 3})
	return ss, func(n int) { churn(n, 0) }
}

func TestFreezePublishLifecycle(t *testing.T) {
	ss, grow := twoPhaseStore(t)
	base := ss.Epoch() // lazy first epoch, seq 1
	if base.Seq() != 1 {
		t.Fatalf("lazy first epoch seq = %d, want 1", base.Seq())
	}

	if _, err := ss.PublishPending(2); err != ErrNoPendingEpoch {
		t.Fatalf("publish without freeze: err = %v, want ErrNoPendingEpoch", err)
	}

	cur, err := ss.FreezeEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if cur != 1 {
		t.Fatalf("freeze reported current seq %d, want 1", cur)
	}
	if !ss.EpochFrozen() {
		t.Fatal("EpochFrozen must report true after freeze")
	}
	if _, err := ss.FreezeEpoch(); err != ErrEpochFrozen {
		t.Fatalf("double freeze: err = %v, want ErrEpochFrozen", err)
	}

	// Mutations after the freeze must not leak into the published epoch.
	frozenSize := ss.Size()
	grow(50)
	if _, err := ss.PublishPending(1); err != ErrStaleEpochSeq {
		t.Fatalf("stale publish: err = %v, want ErrStaleEpochSeq", err)
	}
	if !ss.EpochFrozen() {
		t.Fatal("a stale publish must keep the pending set for the coordinator's abort")
	}
	e, err := ss.PublishPending(5)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq() != 5 {
		t.Fatalf("published seq = %d, want 5", e.Seq())
	}
	if ss.EpochFrozen() {
		t.Fatal("publish must clear the pending set")
	}
	if e.Size() != frozenSize {
		t.Fatalf("published epoch size %d, want the frozen-time size %d", e.Size(), frozenSize)
	}

	// Rollback: aborting the seq that just published restores the prior
	// epoch; aborting anything else is a no-op.
	if ss.AbortEpoch(4) {
		t.Fatal("abort of a non-current seq must not roll back")
	}
	if !ss.AbortEpoch(5) {
		t.Fatal("abort of the just-published seq must roll back")
	}
	if got := ss.Epoch().Seq(); got != 1 {
		t.Fatalf("after rollback epoch seq = %d, want 1", got)
	}
	if ss.AbortEpoch(5) {
		t.Fatal("rollback must be one-shot")
	}
}

func TestAbortDiscardsPendingFreeze(t *testing.T) {
	ss, _ := twoPhaseStore(t)
	ss.Epoch()
	if _, err := ss.FreezeEpoch(); err != nil {
		t.Fatal(err)
	}
	if ss.AbortEpoch(0) {
		t.Fatal("abort(0) discards the freeze but never rolls back")
	}
	if ss.EpochFrozen() {
		t.Fatal("abort must discard the pending freeze")
	}
	if _, err := ss.PublishPending(9); err != ErrNoPendingEpoch {
		t.Fatalf("publish after abort: err = %v, want ErrNoPendingEpoch", err)
	}
}

// TestAdvanceEpochSupersedesTwoPhase: a round driver's AdvanceEpoch
// wipes in-flight two-phase state — the frozen set cannot publish over
// it, and no rollback can regress past it.
func TestAdvanceEpochSupersedesTwoPhase(t *testing.T) {
	ss, _ := twoPhaseStore(t)
	ss.Epoch()
	if _, err := ss.FreezeEpoch(); err != nil {
		t.Fatal(err)
	}
	adv := ss.AdvanceEpoch()
	if ss.EpochFrozen() {
		t.Fatal("AdvanceEpoch must discard the pending freeze")
	}
	if _, err := ss.PublishPending(adv.Seq() + 1); err != ErrNoPendingEpoch {
		t.Fatalf("publish after AdvanceEpoch: err = %v, want ErrNoPendingEpoch", err)
	}
	if ss.AbortEpoch(adv.Seq()) {
		t.Fatal("AdvanceEpoch leaves nothing to roll back")
	}
}
