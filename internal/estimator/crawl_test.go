package estimator

import (
	"testing"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/querytree"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
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

func TestCrawlCompleteSnapshotMatchesTruth(t *testing.T) {
	data := workload.AutosLikeN(1, 3000, 8)
	env, err := workload.NewEnv(data, 2500, 2)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)

	c := NewCrawl(env.Store.Schema())
	res, err := c.Run(iface.AsSearcher())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("unbudgeted crawl did not complete")
	}
	if len(res.Tuples) != env.Store.Size() {
		t.Fatalf("crawl found %d tuples, store has %d", len(res.Tuples), env.Store.Size())
	}
	if res.Cost < len(res.Tuples)/iface.K() {
		t.Errorf("cost %d implausibly low", res.Cost)
	}

	// Diffing two complete snapshots detects exact changes.
	before := make(map[uint64]bool, len(res.Tuples))
	for _, tu := range res.Tuples {
		before[tu.ID] = true
	}
	if err := env.DeleteRandom(50); err != nil {
		t.Fatal(err)
	}
	if err := env.InsertFromPool(80); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Run(iface.AsSearcher())
	if err != nil {
		t.Fatal(err)
	}
	inserted, deleted := 0, len(before)
	for _, tu := range res2.Tuples {
		if before[tu.ID] {
			deleted--
		} else {
			inserted++
		}
	}
	if inserted != 80 || deleted != 50 {
		t.Errorf("diff found +%d/-%d, want +80/-50", inserted, deleted)
	}
}

// overflowCounter counts the overflowing answers a searcher returns.
type overflowCounter struct {
	hiddendb.Searcher
	n uint64
}

func (c *overflowCounter) Search(q hiddendb.Query) (hiddendb.Result, error) {
	r, err := c.Searcher.Search(q)
	if r.Overflow {
		c.n++
	}
	return r, err
}

// TestCrawlMarksProbes: the crawl marks every node query as a probe,
// so on a local Iface a repeated crawl misses the answer cache at every
// overflowing node, which its range length decides, and hits it at
// every other node.
func TestCrawlMarksProbes(t *testing.T) {
	env, err := workload.NewEnv(workload.AutosLikeN(3, 3000, 8), 2500, 4)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)
	iface.Snapshot()
	c := NewCrawl(env.Store.Schema())
	if _, err := c.Run(iface); err != nil {
		t.Fatal(err)
	}
	before := iface.CacheStats()
	oc := &overflowCounter{Searcher: iface}
	res, err := c.Run(oc)
	if err != nil {
		t.Fatal(err)
	}
	got := iface.CacheStats()
	hits, misses := got.Hits-before.Hits, got.Misses-before.Misses
	if misses != oc.n || hits+misses != uint64(res.NodesVisited) {
		t.Fatalf("repeated crawl of %d nodes, %d overflowing: %d hits, %d misses", res.NodesVisited, oc.n, hits, misses)
	}
}

// The point of the strawman: under a realistic budget the crawl cannot
// finish a round, while the estimators deliver usable estimates.
func TestCrawlProhibitiveUnderBudget(t *testing.T) {
	data := workload.AutosLikeN(3, 30000, 12)
	env, err := workload.NewEnv(data, 28000, 4)
	if err != nil {
		t.Fatal(err)
	}
	iface := hiddendb.NewIface(env.Store, 100, nil)

	const G = 500
	c := NewCrawl(env.Store.Schema())
	res, err := c.Run(iface.NewSession(G))
	if err != hiddendb.ErrBudgetExhausted {
		t.Fatalf("err = %v, want budget exhausted", err)
	}
	if res.Complete {
		t.Fatal("crawl claims completion under budget")
	}
	coverage := float64(len(res.Tuples)) / float64(env.Store.Size())
	if coverage > 0.9 {
		t.Errorf("crawl covered %.0f%% — budget not prohibitive here", coverage*100)
	}

	// Meanwhile REISSUE with the same budget estimates COUNT(*) well.
	e, err := NewReissue(env.Store.Schema(), []*agg.Aggregate{agg.CountAll()}, cfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(iface.NewSession(G)); err != nil {
		t.Fatal(err)
	}
	est, ok := e.Estimate(0)
	if !ok {
		t.Fatal("no estimate")
	}
	truth := float64(env.Store.Size())
	if rel := abs(est.Value-truth) / truth; rel > 0.4 {
		t.Errorf("REISSUE rel err %.2f under same budget", rel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkAblationCrawl measures the §1 "track all changes" strawman: a
// full enumeration crawl of a modest database versus the drill-down
// budget the paper's estimators need. The reported crawl_queries is the
// cost of ONE complete snapshot — two are needed before any change can be
// diffed.
func BenchmarkAblationCrawl(b *testing.B) {
	b.ReportAllocs()
	var crawlCost float64
	for i := 0; i < b.N; i++ {
		data := workload.AutosLikeN(1, 30000, 12)
		env, err := workload.NewEnv(data, 28000, 2)
		if err != nil {
			b.Fatal(err)
		}
		iface := hiddendb.NewIface(env.Store, 100, nil)
		c := NewCrawl(env.Store.Schema())
		res, err := c.Run(iface.AsSearcher())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Complete {
			b.Fatal("crawl incomplete without budget")
		}
		crawlCost = float64(res.Cost)
	}
	b.ReportMetric(crawlCost, "crawl_queries")
}
