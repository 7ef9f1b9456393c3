package hiddendb

// MergePartials folds per-shard partial top-k results into the global
// answer under exactly the rules Epoch.Answer applies in process — the
// wire-level half of the scatter-gather contract, used by the
// multi-process router to merge answers fanned out to shard daemons.
//
// Preconditions (what a shard's Result must be for the fold to be exact):
// each partial is the shard's own top-k over its tuples under the SAME
// (k, scorer) pair, ranked by the strict (score desc, ID asc) order, with
// Overflow set iff the shard had more than k matches; tuple IDs are
// disjoint across partials.
//
// Under those preconditions the fold is byte-identical to answering over
// the union of the shards:
//
//   - Tuples: every tuple of the global top-k is necessarily in its own
//     shard's top-k (per-shard rank can only be better than global rank),
//     so offering every retained tuple of every partial — in shard order,
//     though the strict total order makes the result order-independent —
//     to one top-k reconstructs the global top-k exactly.
//   - Overflow: if any shard overflowed, the global match count exceeds k
//     a fortiori. If none did, every shard returned ALL its matches, so
//     the summed tuple count IS the exact global match count. Hence
//     overflow = anyShardOverflow OR totalReturned > k, with no access to
//     per-shard match counts needed.
//
// scorer nil means DefaultScorer. The returned Result is freshly
// allocated; the input partials are not modified.
func MergePartials(partials []Result, k int, scorer Scorer) Result {
	if k < 1 {
		panic("hiddendb: merge k must be >= 1")
	}
	if scorer == nil {
		scorer = DefaultScorer
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.topk.reset()
	total := 0
	overflow := false
	for _, p := range partials {
		total += len(p.Tuples)
		if p.Overflow {
			overflow = true
		}
		for _, t := range p.Tuples {
			sc.topk.offer(t, scorer(t), k)
		}
	}
	return Result{Tuples: sc.topk.drain(k), Overflow: overflow || total > k}
}
