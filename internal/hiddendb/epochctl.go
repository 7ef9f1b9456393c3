package hiddendb

import "errors"

// Two-phase epoch publication for the multi-process shard fabric.
//
// A single-process round driver calls AdvanceEpoch and is done — snapshot
// and publication are one atomic step under one lock. Across processes the
// router needs the two halves separately, so a fleet of shard daemons can
// freeze TOGETHER before any of them publishes:
//
//	phase 1 (freeze):  every shard snapshots its current state into a
//	                   pending set, mutators quiescent (the caller's
//	                   obligation, same as AdvanceEpoch's).
//	phase 2 (publish): every shard atomically swaps the pending set in as
//	                   the serving epoch, under ONE router-assigned
//	                   fleet-wide sequence number.
//
// If phase 2 fails anywhere, the router aborts everywhere: shards that
// already published roll back to the epoch they superseded, shards still
// pending discard the freeze — so the fleet never serves a torn epoch.
// Readers are untouched throughout: they keep answering from the current
// epoch until the instant PublishPending swaps the pointer.

var (
	// ErrEpochFrozen rejects a FreezeEpoch while a pending freeze exists
	// (a double freeze — the router lost track of an earlier handshake).
	ErrEpochFrozen = errors.New("hiddendb: epoch already frozen (pending publication)")
	// ErrNoPendingEpoch rejects a PublishPending with nothing frozen.
	ErrNoPendingEpoch = errors.New("hiddendb: no pending frozen epoch to publish")
	// ErrStaleEpochSeq rejects a PublishPending whose sequence number does
	// not advance the current epoch — a publication from a superseded
	// handshake must never regress the fleet.
	ErrStaleEpochSeq = errors.New("hiddendb: stale epoch sequence number")
)

// FreezeEpoch snapshots every shard into a pending set awaiting
// PublishPending, and returns the CURRENT epoch sequence number (0 when
// no epoch has ever been published). Like AdvanceEpoch it must be called
// with all shard mutators quiescent; unlike AdvanceEpoch it changes
// nothing readers can observe. A second freeze before the pending set is
// published or aborted fails with ErrEpochFrozen.
func (ss *ShardedStore) FreezeEpoch() (uint64, error) {
	ss.epochMu.Lock()
	defer ss.epochMu.Unlock()
	if ss.pending != nil {
		return 0, ErrEpochFrozen
	}
	ss.pending = ss.snapshotAll()
	var cur uint64
	if e := ss.epoch.Load(); e != nil {
		cur = e.seq
	}
	return cur, nil
}

// PublishPending atomically makes the pending frozen snapshot set the
// serving epoch under the given sequence number. seq must strictly
// advance the current epoch (ErrStaleEpochSeq otherwise — the pending set
// is kept so the coordinator's abort can clean up). The superseded epoch
// is retained for one AbortEpoch-window rollback.
func (ss *ShardedStore) PublishPending(seq uint64) (*Epoch, error) {
	ss.epochMu.Lock()
	defer ss.epochMu.Unlock()
	if ss.pending == nil {
		return nil, ErrNoPendingEpoch
	}
	prev := ss.epoch.Load()
	if prev != nil && seq <= prev.seq {
		return nil, ErrStaleEpochSeq
	}
	if seq == 0 {
		return nil, ErrStaleEpochSeq
	}
	e := &Epoch{seq: seq, snaps: ss.pending}
	ss.prevEpoch = prev
	ss.pending = nil
	ss.epoch.Store(e)
	return e, nil
}

// AbortEpoch cancels an in-progress two-phase publication on this shard:
// any pending frozen set is discarded, and — when the current epoch
// carries the given seq, i.e. a PublishPending(seq) already landed here —
// the superseded epoch is restored, reporting rolledBack=true. seq 0
// never matches a published epoch, so AbortEpoch(0) just discards a
// pending freeze. AbortEpoch is idempotent and never fails: the
// coordinator fires it at every shard after a failed handshake without
// knowing how far each one got.
func (ss *ShardedStore) AbortEpoch(seq uint64) (rolledBack bool) {
	ss.epochMu.Lock()
	defer ss.epochMu.Unlock()
	ss.pending = nil
	cur := ss.epoch.Load()
	if seq != 0 && cur != nil && cur.seq == seq && ss.prevEpoch != nil {
		ss.epoch.Store(ss.prevEpoch)
		ss.prevEpoch = nil
		return true
	}
	return false
}

// EpochFrozen reports whether a frozen pending set awaits publication.
func (ss *ShardedStore) EpochFrozen() bool {
	ss.epochMu.Lock()
	defer ss.epochMu.Unlock()
	return ss.pending != nil
}
