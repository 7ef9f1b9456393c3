package estimator

import (
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
)

// Crawl is the "track all changes" strawman of the paper's introduction:
// enumerate the entire database through the restrictive interface by a
// depth-first traversal of the query tree, descending only into
// overflowing nodes (a non-overflowing node's result is already complete).
// It reads tuples only from non-overflowing nodes, so every node query is
// a probe (querytree.Tree.Probe).
// Once two consecutive snapshots exist, every insertion/deletion is known
// exactly — but as [28] (Sheng et al., VLDB 2012) shows and the paper
// reiterates, the query cost is prohibitive for realistic budgets, which
// is what this implementation demonstrates (BenchmarkAblationCrawl).
type Crawl struct {
	sch  *schema.Schema
	tree *querytree.Tree
}

// NewCrawl builds a crawler over the schema's full query tree.
func NewCrawl(sch *schema.Schema) *Crawl {
	return &Crawl{sch: sch, tree: querytree.New(sch)}
}

// CrawlResult is one crawl attempt's outcome.
type CrawlResult struct {
	// Tuples holds every tuple retrieved (complete snapshot iff Complete).
	Tuples []*schema.Tuple
	// Complete reports whether the traversal finished within budget.
	Complete bool
	// Cost is the number of queries issued.
	Cost int
	// NodesVisited counts tree nodes expanded (diagnostics).
	NodesVisited int
}

// Run crawls until the traversal completes or the session budget dies.
// The caller runs one crawl per round and diffs snapshots itself.
func (c *Crawl) Run(s hiddendb.Searcher) (CrawlResult, error) {
	var res CrawlResult
	seen := make(map[uint64]bool)

	// Iterative DFS over (signature prefix, depth). A frame enumerates the
	// values of its level; sig holds the current prefix.
	sig := make(querytree.Signature, c.tree.Depth())
	type frame struct {
		depth int // level this frame enumerates
		next  int // next value index to try
	}
	var collect = func(r hiddendb.Result) {
		for _, t := range r.Tuples {
			if !seen[t.ID] {
				seen[t.ID] = true
				res.Tuples = append(res.Tuples, t)
			}
		}
	}

	// Query the root first.
	root, err := s.Search(c.tree.Probe(sig, 0))
	if err != nil {
		return res, err
	}
	res.Cost++
	res.NodesVisited++
	if !root.Overflow {
		collect(root)
		res.Complete = true
		return res, nil
	}

	stack := []frame{{depth: 0, next: 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		attr := c.tree.LevelAttr(f.depth)
		if f.next >= c.sch.DomainSize(attr) {
			stack = stack[:len(stack)-1]
			continue
		}
		sig[f.depth] = uint16(f.next)
		f.next++
		r, err := s.Search(c.tree.Probe(sig, f.depth+1))
		if err != nil {
			return res, err
		}
		res.Cost++
		res.NodesVisited++
		if r.Overflow {
			if f.depth+1 >= c.tree.Depth() {
				return res, querytree.ErrLeafOverflow
			}
			stack = append(stack, frame{depth: f.depth + 1})
			continue
		}
		collect(r)
	}
	res.Complete = true
	return res, nil
}
