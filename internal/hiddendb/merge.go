package hiddendb

import "fmt"

// MergePartials folds per-shard partial answers into the global answer:
// a drain of the top-k fold (scratch.go) over wire parts, which the
// multi-process router runs on decoded shard answers. Each partial must
// be its shard's own Result at this k under DefaultScorer, and the
// shards must hold disjoint tuple IDs; the merge is then byte-identical
// to answering over the union of the shards. A merged answer that holds
// one tuple ID twice proves the partitions overlap and is refused with
// an error naming that ID. The returned Result is freshly allocated; the
// partials are not modified.
func MergePartials(partials []Result, k int) (Result, error) {
	if k < 1 {
		panic("hiddendb: merge k must be >= 1")
	}
	sc := getScratch()
	defer putScratch(sc)
	for _, p := range partials {
		sc.matches += len(p.Tuples)
		sc.overflow = sc.overflow || p.Overflow
		for _, t := range p.Tuples {
			sc.topk.offer(t, defaultScoreID(t.ID), k)
		}
	}
	res := sc.answer(k)
	// Equal IDs score equally, so a repeated ID sits next to itself.
	for i := 1; i < len(res.Tuples); i++ {
		if id := res.Tuples[i].ID; id == res.Tuples[i-1].ID {
			return Result{}, fmt.Errorf("hiddendb: merged answer holds tuple ID %d twice: shard partitions overlap", id)
		}
	}
	return res, nil
}
