package hiddendb

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/dynagg/dynagg/internal/schema"
)

// Store owns the database contents. Tuples are kept sorted in canonical
// attribute order (lexicographic on value codes, ID tiebreak) so that the
// prefix-conjunctive queries issued by drill downs resolve to contiguous
// ranges found by binary search; the order is held as ~512-tuple leaves
// (seq.go). Alongside it the store maintains per-(attribute, value)
// inverted posting lists for every attribute a reader has demanded one
// for (see Snapshot); every mutation installs a rebuilt list for each
// value it touches (indexApplyBatch).
//
// Only the simulation harness holds a *Store; estimators see it through
// Iface/Session.
//
// Concurrency: reads go through immutable Snapshots (see Snapshot()), so
// any number of goroutines may query the store concurrently. Mutations
// are serialised internally (snapMu), copy the leaf arrays, each leaf
// and each per-attribute list map a published snapshot references before
// changing them, and never write a posting list, so a single mutator
// goroutine may apply updates while readers keep answering on the
// previous version. Mutating from more than one goroutine at a time, or
// mixing mutation with the harness-side accessors (ForEach, At, IDs, Get,
// CountMatching) across goroutines, remains the caller's responsibility —
// in the experiment harness each Store belongs to exactly one trial.
type Store struct {
	sch            *schema.Schema
	seq            tupleSeq // sorted by (Vals, ID)
	byID           map[uint64]*schema.Tuple
	idx            []*attrIndex // per attribute; nil until demanded
	nextID         uint64
	broadMatchNull bool

	version atomic.Uint64
	snapMu  sync.Mutex // serialises mutations and snapshot publication
	snap    atomic.Pointer[Snapshot]

	// lastQueried is the newest version that answered a query without a
	// published snapshot; a second query at the same version triggers
	// publication (guarded by snapMu). eph is the reusable ephemeral
	// snapshot those first-per-version queries are answered from.
	lastQueried uint64
	eph         *Snapshot
}

// attrIndex is one attribute's posting lists — roaring-style container
// sequences keyed by value (posting.go). A list is never written once
// built: a mutation installs a rebuilt list for each value it touches
// (setList). After publication in a snapshot the map is shared and is
// copied before the next list is installed; the copy points at the
// snapshot's lists, which never change.
type attrIndex struct {
	lists  map[uint16]*postingList
	shared bool // map referenced by a snapshot
}

// NewStore creates an empty store over the given schema.
func NewStore(sch *schema.Schema) *Store {
	return &Store{
		sch:         sch,
		byID:        make(map[uint64]*schema.Tuple),
		idx:         make([]*attrIndex, sch.M()),
		nextID:      1,
		lastQueried: ^uint64(0),
	}
}

// SetBroadMatchNull switches the NULL semantics of the search interface to
// broad match: a tuple with NULL in Ai is returned by any query with a
// predicate on Ai (paper §5 "Other Issues"). Default is off (NULL matches
// only IS NULL predicates).
func (st *Store) SetBroadMatchNull(on bool) {
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	st.broadMatchNull = on
	st.version.Add(1)
}

// BroadMatchNull reports the current NULL matching policy.
func (st *Store) BroadMatchNull() bool { return st.broadMatchNull }

// Schema returns the store's schema.
func (st *Store) Schema() *schema.Schema { return st.sch }

// Size returns the current number of tuples, |D|.
func (st *Store) Size() int { return st.seq.len() }

// Version increases on every modification; snapshots and answer caches
// are tagged with it.
func (st *Store) Version() uint64 { return st.version.Load() }

// NextID reserves and returns a fresh unique tuple ID.
func (st *Store) NextID() uint64 {
	id := st.nextID
	st.nextID++
	return id
}

// Snapshot returns the immutable snapshot of the current version,
// building and caching it on first request. It is safe to call from any
// number of reader goroutines; publication is serialised with mutations,
// and a snapshot taken at version v keeps answering for v forever, no
// matter how the store changes afterwards.
func (st *Store) Snapshot() *Snapshot {
	if s := st.snap.Load(); s != nil && s.version == st.version.Load() {
		return s
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if s := st.snap.Load(); s != nil && s.version == st.version.Load() {
		return s
	}
	return st.publishLocked()
}

// publishLocked builds, publishes and returns the snapshot of the
// current version. Caller holds snapMu.
func (st *Store) publishLocked() *Snapshot {
	v := st.version.Load()
	// Promote attributes whose index the previous snapshot built on
	// demand: from this version on the store maintains them incrementally.
	if prev := st.snap.Load(); prev != nil {
		for a := range st.idx {
			if st.idx[a] == nil && prev.attrs[a].lazy != nil && prev.attrs[a].lazy.demanded.Load() {
				st.idx[a] = buildAttrIndex(&st.seq, a)
			}
		}
	}
	st.seq.shared = true // the next write copies what it changes
	s := &Snapshot{
		sch:            st.sch,
		seq:            st.seq,
		attrs:          make([]snapAttr, st.sch.M()),
		broadMatchNull: st.broadMatchNull,
		version:        v,
	}
	// One backing array for all lazy indexes: snapshots are published on
	// every version change, so per-attribute allocations add up.
	lazies := make([]lazyIndex, 0, st.sch.M())
	for a := range s.attrs {
		if ai := st.idx[a]; ai != nil {
			s.attrs[a].lists = ai.lists
			ai.shared = true
		} else {
			lazies = append(lazies, lazyIndex{})
			s.attrs[a].lazy = &lazies[len(lazies)-1]
		}
	}
	st.snap.Store(s)
	return s
}

// ephemeralLocked returns a throwaway snapshot of the current version for
// answering a single query under snapMu. It shares the store's leaves and
// list maps WITHOUT marking them copy-on-write, so it must never be
// published, retained past the locked region, or handed to another
// goroutine. It exists for the constant-update model, where the database
// mutates before every query: publishing a real snapshot there would
// allocate the snapshot and make the next write copy the leaf arrays and
// a leaf, about 20 KB at 170k tuples, for a snapshot that answers exactly
// one query. The one snapshot object is reused across calls (alloc-free
// steady state); it carries no lazy index builders.
func (st *Store) ephemeralLocked() *Snapshot {
	s := st.eph
	if s == nil {
		s = &Snapshot{sch: st.sch, attrs: make([]snapAttr, st.sch.M())}
		st.eph = s
	}
	s.seq = st.seq
	s.broadMatchNull = st.broadMatchNull
	s.version = st.version.Load()
	for a := range s.attrs {
		if ai := st.idx[a]; ai != nil {
			s.attrs[a].lists = ai.lists
		} else {
			s.attrs[a].lists = nil
		}
		s.attrs[a].lazy = nil
	}
	return s
}

// compareTuples orders tuples by value vector then ID: the canonical
// (Vals, ID) order of the tuple sequence.
func compareTuples(a, b *schema.Tuple) int {
	if c := schema.CompareVals(a.Vals, b.Vals); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// less reports whether a sorts strictly before b in canonical order.
func less(a, b *schema.Tuple) bool { return compareTuples(a, b) < 0 }

// Insert adds one tuple. The tuple must validate against the schema and
// carry an ID not already present. It shifts one leaf of the sequence in
// place, O(log n + leaf + n/leaf), copying the leaf (and the leaf arrays)
// first if a published snapshot holds it; bulk changes should use
// ApplyBatch.
func (st *Store) Insert(t *schema.Tuple) error {
	if err := st.sch.Validate(t.Vals); err != nil {
		return err
	}
	if t.ID == 0 {
		return fmt.Errorf("hiddendb: tuple ID 0 is reserved")
	}
	if _, ok := st.byID[t.ID]; ok {
		return fmt.Errorf("hiddendb: duplicate tuple ID %d", t.ID)
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if t.ID >= st.nextID {
		st.nextID = t.ID + 1
	}
	st.seq.insert(t)
	st.byID[t.ID] = t
	st.indexApplyBatch([]*schema.Tuple{t}, nil)
	st.version.Add(1)
	return nil
}

// Delete removes the tuple with the given ID, returning it. The exact
// position is resolved by one (Vals, ID) binary search; the removal
// costs what an Insert does.
func (st *Store) Delete(id uint64) (*schema.Tuple, error) {
	t, ok := st.byID[id]
	if !ok {
		return nil, fmt.Errorf("hiddendb: no tuple with ID %d", id)
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	st.seq.delete(t)
	delete(st.byID, id)
	st.indexApplyBatch(nil, []*schema.Tuple{t})
	st.version.Add(1)
	return t, nil
}

// Get returns the live tuple with the given ID, or nil.
func (st *Store) Get(id uint64) *schema.Tuple { return st.byID[id] }

// ApplyBatch applies a round's worth of updates — deletions by ID, then
// insertions — in one pass over the tuple sequence's leaves. The changes
// are sorted in (Vals, ID) order, and only the leaves they fall in are
// rebuilt (tupleSeq.applyBatch): for c changes that is the batch's own
// sort plus O(c·log leaf + n/leaf) comparisons and a copy of each
// touched leaf, so a round costs its change rather than |D|, and a
// published snapshot keeps sharing every leaf the batch leaves alone.
// The batch is validated in full before anything is mutated; on error
// the store is unchanged. An insert may carry the ID of a tuple the same
// batch deletes: that replaces the tuple in place (an in-place update
// such as a price change), and pointers to the old tuple keep its old
// values.
func (st *Store) ApplyBatch(inserts []*schema.Tuple, deleteIDs []uint64) error {
	del := make(map[uint64]bool, len(deleteIDs))
	dels := make([]*schema.Tuple, 0, len(deleteIDs))
	for _, id := range deleteIDs {
		t, ok := st.byID[id]
		if !ok {
			return fmt.Errorf("hiddendb: batch delete of unknown ID %d", id)
		}
		if del[id] {
			return fmt.Errorf("hiddendb: duplicate delete of ID %d", id)
		}
		del[id] = true
		dels = append(dels, t)
	}
	ins := make([]*schema.Tuple, len(inserts))
	copy(ins, inserts)
	insIDs := make([]uint64, len(ins))
	for i, t := range ins {
		if err := st.sch.Validate(t.Vals); err != nil {
			return err
		}
		if t.ID == 0 {
			return fmt.Errorf("hiddendb: tuple ID 0 is reserved")
		}
		if _, ok := st.byID[t.ID]; ok && !del[t.ID] {
			return fmt.Errorf("hiddendb: duplicate tuple ID %d", t.ID)
		}
		insIDs[i] = t.ID
	}
	// Two inserts sharing an ID need not share values, so they need not
	// sort next to each other by (Vals, ID): check the IDs on their own.
	slices.Sort(insIDs)
	for i := 1; i < len(insIDs); i++ {
		if insIDs[i] == insIDs[i-1] {
			return fmt.Errorf("hiddendb: duplicate tuple ID %d in batch", insIDs[i])
		}
	}
	slices.SortFunc(ins, compareTuples)
	slices.SortFunc(dels, compareTuples)

	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	for _, t := range ins {
		if t.ID >= st.nextID {
			st.nextID = t.ID + 1
		}
	}
	st.seq.applyBatch(ins, dels)
	for _, id := range deleteIDs {
		delete(st.byID, id)
	}
	for _, t := range ins {
		st.byID[t.ID] = t
	}
	st.indexApplyBatch(ins, dels)
	st.version.Add(1)
	return nil
}

// ---------------------------------------------------------------------
// Posting-list maintenance
// ---------------------------------------------------------------------

// buildAttrIndex materialises one attribute's posting lists (ID-sorted
// container sequences) from a tuple sequence: lazy snapshot builds,
// promotions and full rebuilds all build here.
func buildAttrIndex(seq *tupleSeq, attr int) *attrIndex {
	byVal := make(map[uint16][]*schema.Tuple)
	for _, l := range seq.leaves {
		for _, t := range l.ts {
			v := t.Vals[attr]
			byVal[v] = append(byVal[v], t)
		}
	}
	lists := make(map[uint16]*postingList, len(byVal))
	for v, l := range byVal {
		sortTuplesByID(l)
		lists[v] = buildPostingList(l)
	}
	return &attrIndex{lists: lists}
}

// ensureMapOwned re-clones the map headers if a snapshot holds the map.
func (ai *attrIndex) ensureMapOwned() {
	if ai.shared {
		ai.lists = maps.Clone(ai.lists)
		ai.shared = false
	}
}

// setList installs a freshly built list for val; nil or empty deletes the
// entry, so no empty list survives in the map.
func (ai *attrIndex) setList(val uint16, pl *postingList) {
	ai.ensureMapOwned()
	if pl.size() == 0 {
		delete(ai.lists, val)
		return
	}
	ai.lists[val] = pl
}

// indexApplyBatch folds one batch into every active attribute's posting
// lists: per affected value a single ID-order merge into a new list, or a
// full rebuild of the attribute when the churn rivals the database size.
// It is the only code that installs a list; Insert and Delete pass their
// one tuple.
func (st *Store) indexApplyBatch(ins, delTuples []*schema.Tuple) {
	churn := len(ins) + len(delTuples)
	if churn == 0 {
		return
	}
	for a, ai := range st.idx {
		if ai == nil {
			continue
		}
		if churn*4 >= st.seq.len() {
			st.idx[a] = buildAttrIndex(&st.seq, a)
			continue
		}
		adds := make(map[uint16][]*schema.Tuple)
		for _, t := range ins {
			v := t.Vals[a]
			adds[v] = append(adds[v], t)
		}
		rems := make(map[uint16]map[uint64]bool)
		for _, t := range delTuples {
			v := t.Vals[a]
			if rems[v] == nil {
				rems[v] = make(map[uint64]bool)
			}
			rems[v][t.ID] = true
		}
		for v, add := range adds {
			sortTuplesByID(add)
			ai.setList(v, rebuildList(ai.lists[v], add, rems[v]))
		}
		for v, rem := range rems {
			if adds[v] == nil {
				ai.setList(v, rebuildList(ai.lists[v], nil, rem))
			}
		}
	}
}

// rebuildList re-derives one value's posting list from its current
// contents plus a batch's ID-sorted additions and removals, in one pass
// over the old containers in ID order. An added tuple whose ID the batch
// also removes (a replacement) lands at its place in ID order; only the
// old tuple is skipped. The merged payload slice is freshly built, so
// the new containers alias it safely.
func rebuildList(old *postingList, add []*schema.Tuple, rem map[uint64]bool) *postingList {
	merged := make([]*schema.Tuple, 0, old.size()+len(add)-len(rem))
	j := 0
	old.forEachTuple(func(t *schema.Tuple) {
		if rem[t.ID] {
			return
		}
		for j < len(add) && add[j].ID < t.ID {
			merged = append(merged, add[j])
			j++
		}
		merged = append(merged, t)
	})
	merged = append(merged, add[j:]...)
	if len(merged) == 0 {
		return nil
	}
	return buildPostingList(merged)
}

// ---------------------------------------------------------------------
// Harness-side accessors
// ---------------------------------------------------------------------

// ForEach visits every live tuple in canonical order. fn must not mutate
// the store. This is the harness's ground-truth access path.
func (st *Store) ForEach(fn func(*schema.Tuple)) {
	for _, l := range st.seq.leaves {
		for _, t := range l.ts {
			fn(t)
		}
	}
}

// At returns the i-th tuple in canonical order (0 ≤ i < Size). Schedules
// use it to sample single victims without materialising the ID list.
func (st *Store) At(i int) *schema.Tuple { return st.seq.at(i) }

// IDs returns the IDs of all live tuples in canonical order. It allocates;
// intended for schedules that sample deletion victims.
func (st *Store) IDs() []uint64 {
	out := make([]uint64, 0, st.seq.len())
	for _, l := range st.seq.leaves {
		for _, t := range l.ts {
			out = append(out, t.ID)
		}
	}
	return out
}

// CountMatching returns |Sel(q)| exactly — ground truth only, never
// exposed through the restricted interface. It shares the
// index-accelerated answering paths with Search, using the published
// snapshot when one exists and the ephemeral snapshot otherwise — it
// never forces publication, so counting between mutations (the
// constant-update model) does not trigger per-mutation copy-on-write.
func (st *Store) CountMatching(q Query) int {
	if s := st.snap.Load(); s != nil && s.version == st.version.Load() {
		return s.CountMatching(q)
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	if s := st.snap.Load(); s != nil && s.version == st.version.Load() {
		return s.CountMatching(q)
	}
	return st.ephemeralLocked().CountMatching(q)
}
