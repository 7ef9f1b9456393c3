package hiddendb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dynagg/dynagg/internal/schema"
)

// ShardedStore partitions a database across N independent Stores by a hash
// of the tuple ID, so that each shard owns its own sorted tuple sequence,
// version counter and inverted posting lists, and mutations to different
// shards never contend. Reads are served from an Epoch — one immutable
// snapshot per shard, published together — so that a round's answers stay
// frozen no matter which shards mutate underneath.
//
// Concurrency contract (one level up from Store's):
//
//   - Each shard has at most ONE mutator goroutine at a time. Because
//     mutations are routed by ShardFor(id), a harness may run one mutator
//     goroutine per shard in parallel (ApplyBatch does exactly that),
//     which is the point of sharding the write path.
//   - Epoch publication (AdvanceEpoch) happens at round boundaries, with
//     all shard mutators quiescent: the publisher must observe every
//     mutation it wants the new epoch to serve. Publication itself is
//     serialised internally and atomic with respect to readers.
//   - Readers (Epoch, Search through ShardedIface) are lock-free and may
//     run concurrently with mutators; they keep answering on the pinned
//     epoch until the next AdvanceEpoch.
type ShardedStore struct {
	sch    *schema.Schema
	shards []*Store
	nextID atomic.Uint64

	epochMu sync.Mutex // serialises epoch publication
	epoch   atomic.Pointer[Epoch]

	// Two-phase publication state (epochctl.go), guarded by epochMu:
	// a frozen snapshot set awaiting a coordinator-assigned sequence
	// number, and the epoch the last PublishPending superseded (the
	// rollback target while the coordinator may still abort).
	pending   []*Snapshot
	prevEpoch *Epoch
}

// NewShardedStore creates an empty store partitioned n ways. n = 1 is a
// valid degenerate configuration (one shard, useful for equivalence
// testing). It panics if n < 1.
func NewShardedStore(sch *schema.Schema, n int) *ShardedStore {
	if n < 1 {
		panic("hiddendb: shard count must be >= 1")
	}
	shards := make([]*Store, n)
	for i := range shards {
		shards[i] = NewStore(sch)
	}
	return &ShardedStore{sch: sch, shards: shards}
}

// NumShards returns the shard count N.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// ShardFor returns the index of the shard owning the given tuple ID. The
// routing is a pure function of (id, N): splitmix64(id) mod N.
func (ss *ShardedStore) ShardFor(id uint64) int {
	return int(splitmix64(id) % uint64(len(ss.shards)))
}

// Shard returns the i-th shard. Harness-side only: the caller inherits the
// shard's single-mutator obligation and must route by ShardFor.
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i] }

// Schema returns the store's schema.
func (ss *ShardedStore) Schema() *schema.Schema { return ss.sch }

// Size returns the current number of live tuples across all shards.
func (ss *ShardedStore) Size() int {
	n := 0
	for _, st := range ss.shards {
		n += st.Size()
	}
	return n
}

// SetBroadMatchNull switches the NULL matching policy on every shard.
// Mutator-side: call with all shard mutators quiescent.
func (ss *ShardedStore) SetBroadMatchNull(on bool) {
	for _, st := range ss.shards {
		st.SetBroadMatchNull(on)
	}
}

// NextID reserves and returns a fresh unique tuple ID. Unlike Store.NextID
// it is safe to call from concurrent per-shard mutators: the counter is a
// single atomic shared by all shards, so IDs are globally unique.
func (ss *ShardedStore) NextID() uint64 { return ss.nextID.Add(1) }

// reserveID keeps the global ID counter above an explicitly chosen ID.
func (ss *ShardedStore) reserveID(id uint64) {
	for {
		cur := ss.nextID.Load()
		if id <= cur || ss.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Insert routes one tuple to its owning shard.
func (ss *ShardedStore) Insert(t *schema.Tuple) error {
	ss.reserveID(t.ID)
	return ss.shards[ss.ShardFor(t.ID)].Insert(t)
}

// Delete removes the tuple with the given ID from its owning shard.
func (ss *ShardedStore) Delete(id uint64) (*schema.Tuple, error) {
	return ss.shards[ss.ShardFor(id)].Delete(id)
}

// Get returns the live tuple with the given ID, or nil.
func (ss *ShardedStore) Get(id uint64) *schema.Tuple {
	return ss.shards[ss.ShardFor(id)].Get(id)
}

// partitionBatch splits a batch by owning shard.
func (ss *ShardedStore) partitionBatch(inserts []*schema.Tuple, deleteIDs []uint64) (ins [][]*schema.Tuple, dels [][]uint64) {
	ins = make([][]*schema.Tuple, len(ss.shards))
	dels = make([][]uint64, len(ss.shards))
	for _, t := range inserts {
		ss.reserveID(t.ID)
		sh := ss.ShardFor(t.ID)
		ins[sh] = append(ins[sh], t)
	}
	for _, id := range deleteIDs {
		sh := ss.ShardFor(id)
		dels[sh] = append(dels[sh], id)
	}
	return ins, dels
}

// ApplyBatch partitions a round's updates by owning shard and applies
// each shard's slice with one merge pass on its own goroutine — the
// sharded write path at full width — returning once every shard has
// finished. Validation is per shard: a failing shard is left unmodified,
// but every other shard keeps its applied portion (cross-shard batches
// are not atomic — the round-boundary mutator owns recovery). The error
// is the lowest-numbered failing shard's.
func (ss *ShardedStore) ApplyBatch(inserts []*schema.Tuple, deleteIDs []uint64) error {
	ins, dels := ss.partitionBatch(inserts, deleteIDs)
	errs := make([]error, len(ss.shards))
	var wg sync.WaitGroup
	for i, st := range ss.shards {
		if len(ins[i]) == 0 && len(dels[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, st *Store) {
			defer wg.Done()
			if err := st.ApplyBatch(ins[i], dels[i]); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach visits every live tuple, shard by shard (canonical order within
// a shard, shard order across shards — NOT globally canonical).
// Ground-truth access for a quiescent store only.
func (ss *ShardedStore) ForEach(fn func(*schema.Tuple)) {
	for _, st := range ss.shards {
		st.ForEach(fn)
	}
}

// IDs returns the IDs of all live tuples in canonical order, the order
// Store.IDs lists them in: a merge of the shards' canonical orders, so a
// harness that samples victims from the list picks the same tuples from
// a sharded store as from an unsharded one holding the same tuples.
func (ss *ShardedStore) IDs() []uint64 {
	out := make([]uint64, 0, ss.Size())
	heads := make([][]*schema.Tuple, len(ss.shards)) // each shard's unmerged rest of a leaf
	next := make([]int, len(ss.shards))              // each shard's next leaf
	for len(out) < cap(out) {
		best := -1
		for i, st := range ss.shards {
			if len(heads[i]) == 0 && next[i] < len(st.seq.leaves) {
				heads[i] = st.seq.leaves[next[i]].ts
				next[i]++
			}
			if len(heads[i]) > 0 && (best < 0 || less(heads[i][0], heads[best][0])) {
				best = i
			}
		}
		out = append(out, heads[best][0].ID)
		heads[best] = heads[best][1:]
	}
	return out
}

// CountMatching returns |Sel(q)| over the live (un-pinned) contents: the
// sum of the per-shard exact counts. Ground truth only.
func (ss *ShardedStore) CountMatching(q Query) int {
	n := 0
	for _, st := range ss.shards {
		n += st.CountMatching(q)
	}
	return n
}

// AdvanceEpoch publishes a new epoch: one snapshot per shard, taken
// together, tagged with the next epoch sequence number. Call it at the
// round boundary with all shard mutators quiescent — the snapshots are
// only mutually consistent if no shard is mid-mutation. Readers switch to
// the new epoch atomically; sessions pinned to the previous epoch keep it.
func (ss *ShardedStore) AdvanceEpoch() *Epoch {
	ss.epochMu.Lock()
	defer ss.epochMu.Unlock()
	var seq uint64 = 1
	if prev := ss.epoch.Load(); prev != nil {
		seq = prev.seq + 1
	}
	e := &Epoch{seq: seq, snaps: ss.snapshotAll()}
	// A self-advanced epoch supersedes any in-flight two-phase state:
	// publishing a stale frozen set after this point would serve data the
	// round driver already moved past, and rolling back across it would
	// regress the seq readers have observed.
	ss.pending = nil
	ss.prevEpoch = nil
	ss.epoch.Store(e)
	return e
}

// Epoch returns the current pinned epoch, publishing the first one if none
// exists yet. It never re-pins on its own: after the initial publication,
// only AdvanceEpoch moves readers forward.
func (ss *ShardedStore) Epoch() *Epoch {
	if e := ss.epoch.Load(); e != nil {
		return e
	}
	ss.epochMu.Lock()
	defer ss.epochMu.Unlock()
	if e := ss.epoch.Load(); e != nil {
		return e
	}
	e := &Epoch{seq: 1, snaps: ss.snapshotAll()}
	ss.epoch.Store(e)
	return e
}

// snapshotAll takes one snapshot per shard: the state an epoch pins.
// Callers hold epochMu; the snapshots are mutually consistent only while
// every shard mutator is quiescent.
func (ss *ShardedStore) snapshotAll() []*Snapshot {
	snaps := make([]*Snapshot, len(ss.shards))
	for i, st := range ss.shards {
		snaps[i] = st.Snapshot()
	}
	return snaps
}

// Epoch pins one immutable snapshot per shard under a single sequence
// number. Everything read through an Epoch is frozen: the same Epoch value
// answers identically forever, regardless of shard mutations or later
// epochs. Epochs are immutable and safe to share across any number of
// goroutines.
type Epoch struct {
	seq   uint64
	snaps []*Snapshot
}

// Seq returns the epoch sequence number (1-based).
func (e *Epoch) Seq() uint64 { return e.seq }

// NumShards returns the number of pinned shard snapshots.
func (e *Epoch) NumShards() int { return len(e.snaps) }

// Size returns the number of tuples frozen in the epoch, |D|.
func (e *Epoch) Size() int {
	n := 0
	for _, s := range e.snaps {
		n += s.Size()
	}
	return n
}

// CountMatching returns |Sel(q)| exactly over the pinned snapshots.
func (e *Epoch) CountMatching(q Query) int {
	n := 0
	for _, s := range e.snaps {
		n += s.CountMatching(q)
	}
	return n
}

// rangeCount sums the shards' range counts (Snapshot.rangeCount); ok
// only when every shard's plan is a bare tuple range.
func (e *Epoch) rangeCount(q Query) (n int, ok bool) {
	for _, s := range e.snaps {
		c, ok := s.rangeCount(q)
		if !ok {
			return 0, false
		}
		n += c
	}
	return n, true
}

// Answer computes the top-k result for q by scatter-gather: a drain of
// the top-k fold (scratch.go) over the pinned shard snapshots, in shard
// order, through one pooled scratch. Shards partition the tuple IDs, so
// the answer is byte-identical to the unsharded engine's at every shard
// count; the only steady-state allocation is the returned Result slice.
func (e *Epoch) Answer(q Query, k int, scorer Scorer) Result {
	sc := getScratch()
	defer putScratch(sc)
	for _, s := range e.snaps {
		s.fold(q, k, scorer, strategyAuto, sc)
	}
	return sc.answer(k)
}

// ShardedIface is the restrictive top-k search view over a ShardedStore:
// the sharded counterpart of Iface, answering every query by scatter-
// gather over the pinned epoch through the same cached front.
//
// Concurrency: safe for any number of concurrent reader goroutines.
// Sessions created by NewSession pin the epoch current at creation time
// and answer from it for their whole lifetime — a long-running session
// never observes two epochs. Answers pinned to a superseded epoch bypass
// the answer cache rather than thrash it.
type ShardedIface struct {
	front
	ss *ShardedStore
}

// NewShardedIface creates a top-k view of the sharded store. scorer may be
// nil for the default hash ranking. It panics if k < 1.
func NewShardedIface(ss *ShardedStore, k int, scorer Scorer) *ShardedIface {
	f := &ShardedIface{ss: ss}
	f.setup(k, scorer)
	f.stale = func(seq uint64) bool {
		cur := ss.epoch.Load()
		return cur == nil || cur.seq != seq
	}
	return f
}

// Schema returns the queryable schema.
func (f *ShardedIface) Schema() *schema.Schema { return f.ss.Schema() }

// Version returns the current epoch sequence number — the sharded
// analogue of the store version serving diagnostics report.
func (f *ShardedIface) Version() uint64 { return f.ss.Epoch().Seq() }

// Epoch returns the epoch the interface currently answers from.
func (f *ShardedIface) Epoch() *Epoch { return f.ss.Epoch() }

// Search answers one query against the current epoch. It never fails;
// budget enforcement lives in Session.
func (f *ShardedIface) Search(q Query) (Result, error) {
	a, err := f.SearchAnswer(q)
	return a.res, err
}

// SearchAnswer is Search returning the shared cached *Answer so the
// serving layer can memoize wire encodings per epoch (answer.go).
func (f *ShardedIface) SearchAnswer(q Query) (*Answer, error) {
	f.queries.Add(1)
	e := f.ss.Epoch()
	return f.answer(e, e.seq, q), nil
}

// SearchBatchAnswer answers many queries under ONE epoch pin, returning
// the shared cached Answers: every query in the batch sees the same
// frozen state even if AdvanceEpoch lands midway. It ignores ctx and
// never fails.
func (f *ShardedIface) SearchBatchAnswer(_ context.Context, qs []Query) ([]*Answer, error) {
	return f.batch(qs, f.pin), nil
}

// pin returns the current epoch, publishing the first one if needed.
func (f *ShardedIface) pin() (frozen, uint64) {
	e := f.ss.Epoch()
	return e, e.seq
}

// LookupAnswer is the serving fast path over the current epoch (see
// front.lookup): hits count one query, misses count nothing.
func (f *ShardedIface) LookupAnswer(key []byte) (*Answer, bool) {
	e := f.ss.epoch.Load()
	if e == nil {
		return nil, false
	}
	return f.lookup(e.seq, key)
}

// NewSession starts a budgeted round pinned to the CURRENT epoch: every
// query of the session — however long it runs — is answered from the
// epoch that was live when the session was created. G <= 0 means
// unlimited.
func (f *ShardedIface) NewSession(g int) *Session {
	return NewSession(&epochView{f: f, e: f.ss.Epoch()}, g)
}

// epochView is the session backend for sharded sessions: a ShardedIface
// with one epoch pinned for the lifetime of the view.
type epochView struct {
	f *ShardedIface
	e *Epoch
}

func (v *epochView) Search(q Query) (Result, error) {
	v.f.queries.Add(1)
	return v.f.answer(v.e, v.e.seq, q).res, nil
}

func (v *epochView) SearchBatch(qs []Query) ([]BatchItem, error) {
	return batchItems(v.f.batch(qs, v.pin)), nil
}

func (v *epochView) pin() (frozen, uint64)  { return v.e, v.e.seq }
func (v *epochView) K() int                 { return v.f.K() }
func (v *epochView) Schema() *schema.Schema { return v.f.Schema() }

// Epoch returns the sharded epoch this session is pinned to, or nil for
// a session over any other backend.
func (s *Session) Epoch() *Epoch {
	if v, ok := s.b.(*epochView); ok {
		return v.e
	}
	return nil
}
