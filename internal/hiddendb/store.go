package hiddendb

import (
	"cmp"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/dynagg/dynagg/internal/schema"
)

// Store owns the database contents. Tuples are kept sorted in canonical
// attribute order (lexicographic on value codes, ID tiebreak) so that the
// prefix-conjunctive queries issued by drill downs resolve to contiguous
// ranges found by binary search. Alongside the sorted slice the store
// maintains per-(attribute, value) inverted posting lists for every
// attribute a reader has demanded one for (see Snapshot); every mutation
// installs a rebuilt list for each value it touches (indexApplyBatch).
//
// Only the simulation harness holds a *Store; estimators see it through
// Iface/Session.
//
// Concurrency: reads go through immutable Snapshots (see Snapshot()), so
// any number of goroutines may query the store concurrently. Mutations
// are serialised internally (snapMu), copy the sorted slice and the
// per-attribute list maps a published snapshot references before
// changing them, and never write a posting list, so a single mutator
// goroutine may apply updates while readers keep answering on the
// previous version. Mutating from more than one goroutine at a time, or
// mixing mutation with the harness-side accessors (ForEach, At, IDs, Get,
// CountMatching) across goroutines, remains the caller's responsibility —
// in the experiment harness each Store belongs to exactly one trial.
type Store struct {
	sch            *schema.Schema
	tuples         []*schema.Tuple // sorted by (Vals, ID)
	byID           map[uint64]*schema.Tuple
	idx            []*attrIndex // per attribute; nil until demanded
	tuplesShared   bool         // tuples slice referenced by a snapshot
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
func (st *Store) Size() int { return len(st.tuples) }

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
				st.idx[a] = buildAttrIndex(st.tuples, a)
			}
		}
	}
	s := &Snapshot{
		sch:            st.sch,
		tuples:         st.tuples,
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
	st.tuplesShared = true
	st.snap.Store(s)
	return s
}

// ephemeralLocked returns a throwaway snapshot of the current version for
// answering a single query under snapMu. It shares the store's slices
// WITHOUT marking them copy-on-write, so it must never be published,
// retained past the locked region, or handed to another goroutine. It
// exists for the constant-update model, where the database mutates before
// every query: publishing a real snapshot there would pay an O(n)
// copy-on-write per query for a snapshot that answers exactly one.
// The one snapshot object is reused across calls (alloc-free steady
// state); it carries no lazy index builders.
func (st *Store) ephemeralLocked() *Snapshot {
	s := st.eph
	if s == nil {
		s = &Snapshot{sch: st.sch, attrs: make([]snapAttr, st.sch.M())}
		st.eph = s
	}
	s.tuples = st.tuples
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
// (Vals, ID) order of the sorted slice.
func compareTuples(a, b *schema.Tuple) int {
	if c := schema.CompareVals(a.Vals, b.Vals); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// less reports whether a sorts strictly before b in canonical order.
func less(a, b *schema.Tuple) bool { return compareTuples(a, b) < 0 }

// searchPos returns the position of t in the sorted slice: its exact
// index when t is present ((Vals, ID) is unique), else its insertion
// point.
func (st *Store) searchPos(t *schema.Tuple) int {
	return sort.Search(len(st.tuples), func(i int) bool { return !less(st.tuples[i], t) })
}

// Insert adds one tuple. The tuple must validate against the schema and
// carry an ID not already present. Inserting is O(n) (memmove); bulk
// changes should use ApplyBatch.
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
	pos := st.searchPos(t)
	if st.tuplesShared {
		// Copy-on-write fused with the insert: one pass, not copy+shift.
		nt := make([]*schema.Tuple, len(st.tuples)+1)
		copy(nt, st.tuples[:pos])
		nt[pos] = t
		copy(nt[pos+1:], st.tuples[pos:])
		st.tuples = nt
		st.tuplesShared = false
	} else {
		st.tuples = append(st.tuples, nil)
		copy(st.tuples[pos+1:], st.tuples[pos:])
		st.tuples[pos] = t
	}
	st.byID[t.ID] = t
	st.indexApplyBatch([]*schema.Tuple{t}, nil)
	st.version.Add(1)
	return nil
}

// Delete removes the tuple with the given ID, returning it. The exact
// position is resolved by one (Vals, ID) binary search.
func (st *Store) Delete(id uint64) (*schema.Tuple, error) {
	t, ok := st.byID[id]
	if !ok {
		return nil, fmt.Errorf("hiddendb: no tuple with ID %d", id)
	}
	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	pos := st.searchPos(t)
	if pos >= len(st.tuples) || st.tuples[pos] != t {
		panic(fmt.Sprintf("hiddendb: index out of sync for tuple %d", id))
	}
	if st.tuplesShared {
		nt := make([]*schema.Tuple, len(st.tuples)-1)
		copy(nt, st.tuples[:pos])
		copy(nt[pos:], st.tuples[pos+1:])
		st.tuples = nt
		st.tuplesShared = false
	} else {
		copy(st.tuples[pos:], st.tuples[pos+1:])
		st.tuples = st.tuples[:len(st.tuples)-1]
	}
	delete(st.byID, id)
	st.indexApplyBatch(nil, []*schema.Tuple{t})
	st.version.Add(1)
	return t, nil
}

// Get returns the live tuple with the given ID, or nil.
func (st *Store) Get(id uint64) *schema.Tuple { return st.byID[id] }

// ApplyBatch applies a round's worth of updates — deletions by ID, then
// insertions — as one new sorted slice. The changes are sorted in
// (Vals, ID) order and located by galloping from each one's position to
// the next; the untouched runs between them move with bulk copies. For
// i inserts and d deletes that is the batch's own sort plus
// O((i+d)·log(n/(i+d))) comparisons and one O(n) memmove, so a round
// costs its change rather than |D|. (Past a few percent of the store,
// one pass over it finds the deletions faster than sorting them; see
// positionsOf.) The batch is validated in full before anything is
// mutated; on error the store is unchanged. An insert may carry the ID of
// a tuple the same batch deletes: that replaces the tuple in place (an
// in-place update such as a price change), and pointers to the old tuple
// keep its old values.
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
	delPos := st.positionsOf(dels, del)

	st.snapMu.Lock()
	defer st.snapMu.Unlock()
	for _, t := range ins {
		if t.ID >= st.nextID {
			st.nextID = t.ID + 1
		}
	}
	st.tuples = mergeBatch(st.tuples, ins, delPos)
	st.tuplesShared = false
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

// positionsOf returns the ascending positions of the live tuples dels
// (whose IDs are the keys of del) in the sorted slice. A few are sorted
// and galloped to. Sorting d of them costs about d·log2(d) comparisons,
// each a handful of cache misses, while one pass over the slice costs a
// load and a map probe per tuple, about a quarter of a comparison; past
// that break-even (near 2% of a 170k-tuple store) the pass finds them.
func (st *Store) positionsOf(dels []*schema.Tuple, del map[uint64]bool) []int {
	pos := make([]int, 0, len(dels))
	if 4*len(dels)*bits.Len(uint(len(dels))) > len(st.tuples) {
		for p, t := range st.tuples {
			if del[t.ID] {
				pos = append(pos, p)
			}
		}
		return pos
	}
	slices.SortFunc(dels, compareTuples)
	p := 0
	for _, t := range dels {
		p = gallopTuples(st.tuples, p, t)
		if p == len(st.tuples) || st.tuples[p] != t {
			panic(fmt.Sprintf("hiddendb: index out of sync for tuple %d", t.ID))
		}
		pos = append(pos, p)
		p++
	}
	return pos
}

// mergeBatch returns a fresh sorted slice holding old minus the tuples
// at the ascending positions delPos, plus ins, which is sorted and
// shares no (Vals, ID) key with a surviving tuple. Each insert gallops
// from the previous one's insertion point to its own; the untouched runs
// between changes move with one copy each. An insert whose point is a
// deleted position lands where the deleted tuple was.
func mergeBatch(old, ins []*schema.Tuple, delPos []int) []*schema.Tuple {
	out := make([]*schema.Tuple, len(old)-len(delPos)+len(ins))
	w, pos, d := 0, 0, 0
	// copyTo moves old[pos:to] minus the deleted positions into out.
	copyTo := func(to int) {
		for ; d < len(delPos) && delPos[d] < to; d++ {
			w += copy(out[w:], old[pos:delPos[d]])
			pos = delPos[d] + 1
		}
		w += copy(out[w:], old[pos:to])
		pos = to
	}
	p := 0
	for _, t := range ins {
		p = gallopTuples(old, p, t)
		copyTo(p)
		out[w] = t
		w++
	}
	copyTo(len(old))
	return out
}

// gallopTuples returns the first index p ≥ lo with !less(ts[p], t), the
// caller knowing every tuple before lo sorts below t. It probes lo, lo+1,
// lo+3, lo+7, … and binary-searches the last bracket: O(log(p-lo))
// comparisons, so a walk over sorted keys pays for the gaps it skips
// only logarithmically.
func gallopTuples(ts []*schema.Tuple, lo int, t *schema.Tuple) int {
	hi, step := lo, 1
	for hi < len(ts) && less(ts[hi], t) {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(ts))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(ts[m], t) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// ---------------------------------------------------------------------
// Posting-list maintenance
// ---------------------------------------------------------------------

// buildAttrIndex materialises one attribute's posting lists (ID-sorted
// container sequences) from tuples in any order: lazy snapshot builds,
// promotions and full rebuilds all build here.
func buildAttrIndex(tuples []*schema.Tuple, attr int) *attrIndex {
	byVal := make(map[uint16][]*schema.Tuple)
	for _, t := range tuples {
		v := t.Vals[attr]
		byVal[v] = append(byVal[v], t)
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
		if churn*4 >= len(st.tuples) {
			st.idx[a] = buildAttrIndex(st.tuples, a)
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
	for _, t := range st.tuples {
		fn(t)
	}
}

// At returns the i-th tuple in canonical order (0 ≤ i < Size). Schedules
// use it to sample single victims without materialising the ID list.
func (st *Store) At(i int) *schema.Tuple { return st.tuples[i] }

// IDs returns the IDs of all live tuples in canonical order. It allocates;
// intended for schedules that sample deletion victims.
func (st *Store) IDs() []uint64 {
	out := make([]uint64, len(st.tuples))
	for i, t := range st.tuples {
		out[i] = t.ID
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
