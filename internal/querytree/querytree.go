// Package querytree implements the paper's §3.1 query tree and the drill
// down / roll up primitives every estimator is built from.
//
// The tree organises conjunctive queries from broad (root: SELECT * FROM D)
// to specific (leaves: fully specified m-predicate queries). Level i
// appends a predicate on the i-th drill attribute; a leaf is identified by
// one domain value per level, so a uniformly random leaf — the paper's
// drill-down "signature" r — is drawn by picking each level's value
// uniformly at random.
//
// A drill down walks its root-to-leaf path top-down until the first
// non-overflowing query q(r); the Horvitz–Thompson style estimate
// Q(q)/p(q) is unbiased for COUNT/SUM aggregates because every tuple
// belongs to exactly one top non-overflowing query (paper Theorem 3.1).
// Since Sel(child) ⊆ Sel(parent), overflow is monotone along a path, which
// is what makes the localized update procedure (reissue at the previous
// depth, then drill down or roll up) find exactly the same node a fresh
// drill down from the root would find.
package querytree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
)

// ErrLeafOverflow reports that a fully-specified leaf query still
// overflowed. Under the paper's model (distinct tuples, k ≥ 1) this cannot
// happen; surfacing it loudly guards against misconfigured simulations
// (e.g. duplicate tuples).
var ErrLeafOverflow = errors.New("querytree: fully-specified leaf query overflows")

// Tree is a query tree over a schema, optionally rooted under fixed
// selection predicates (paper §3.3: aggregates with selection conditions
// drill down the subtree whose every node contains the selection
// predicate). A Tree is immutable after construction and therefore safe
// to share across goroutines; drill state lives in the callers.
type Tree struct {
	sch   *schema.Schema
	order []int          // drill attributes, tree level i ↦ order[i]
	fixed hiddendb.Query // predicates present in every node
}

// New builds the full query tree: level i drills on attribute i.
func New(sch *schema.Schema) *Tree {
	order := make([]int, sch.M())
	for i := range order {
		order[i] = i
	}
	return &Tree{sch: sch, order: order}
}

// NewWithSelection builds the subtree under the given conjunctive
// selection condition: every node includes sel's predicates, and the drill
// levels are the remaining attributes in schema order.
func NewWithSelection(sch *schema.Schema, sel hiddendb.Query) *Tree {
	fixedAttrs := make(map[int]bool, sel.Len())
	for _, p := range sel.Preds() {
		if p.Attr < 0 || p.Attr >= sch.M() {
			panic(fmt.Sprintf("querytree: selection predicate on unknown attribute %d", p.Attr))
		}
		fixedAttrs[p.Attr] = true
	}
	var order []int
	for i := 0; i < sch.M(); i++ {
		if !fixedAttrs[i] {
			order = append(order, i)
		}
	}
	return &Tree{sch: sch, order: order, fixed: sel}
}

// Schema returns the underlying schema.
func (t *Tree) Schema() *schema.Schema { return t.sch }

// Selection returns the fixed selection predicates (zero Query if none).
func (t *Tree) Selection() hiddendb.Query { return t.fixed }

// Depth returns the number of drill levels (m minus fixed attributes).
func (t *Tree) Depth() int { return len(t.order) }

// LevelAttr returns the schema attribute drilled at the given level.
func (t *Tree) LevelAttr(level int) int { return t.order[level] }

// Signature identifies one leaf: the domain value chosen at each level.
// It is the random number r of the paper's "simple model" — the whole
// randomness of a drill down.
type Signature []uint16

// RandomSignature draws a uniformly random leaf.
func (t *Tree) RandomSignature(rng *rand.Rand) Signature {
	sig := make(Signature, len(t.order))
	for i, attr := range t.order {
		sig[i] = uint16(rng.Intn(t.sch.DomainSize(attr)))
	}
	return sig
}

// Node returns the conjunctive query at the given depth of the signature's
// root-to-leaf path. Depth 0 is the root (selection predicates only).
func (t *Tree) Node(sig Signature, depth int) hiddendb.Query {
	if depth < 0 || depth > len(t.order) {
		panic(fmt.Sprintf("querytree: depth %d out of range [0,%d]", depth, len(t.order)))
	}
	if len(sig) != len(t.order) {
		panic(fmt.Sprintf("querytree: signature has %d levels, tree has %d", len(sig), len(t.order)))
	}
	preds := make([]hiddendb.Pred, 0, t.fixed.Len()+depth)
	preds = append(preds, t.fixed.Preds()...)
	for i := 0; i < depth; i++ {
		preds = append(preds, hiddendb.Pred{Attr: t.order[i], Val: sig[i]})
	}
	return hiddendb.NewQuery(preds...)
}

// Probe returns Node(sig, depth) marked as a probe (hiddendb.Query.Probe):
// the drill-down loops and the crawl read only the overflow flag of an
// overflowing node, so the interface may answer it without tuples.
func (t *Tree) Probe(sig Signature, depth int) hiddendb.Query {
	return t.Node(sig, depth).Probe()
}

// P returns p(q) for a node at the given depth: the probability that a
// uniformly random signature's path passes through it, ∏_{i<depth} 1/|Ui|.
// This is exactly the ratio of leaves under the node.
func (t *Tree) P(depth int) float64 {
	p := 1.0
	for i := 0; i < depth; i++ {
		p /= float64(t.sch.DomainSize(t.order[i]))
	}
	return p
}

// Outcome is the end state of one drill down (or drill-down update): the
// top non-overflowing node on the signature's path, its result, and the
// number of interface queries spent getting there.
type Outcome struct {
	// Depth of the top non-overflowing node (0 = root).
	Depth int
	// Result of that node's query. Underflow ⇒ zero-valued estimate.
	Result hiddendb.Result
	// Cost is the number of queries this operation issued, including any
	// parent-verification queries.
	Cost int
}

// P returns p(q) of the outcome's node within tree t.
func (o Outcome) P(t *Tree) float64 { return t.P(o.Depth) }

// DrillFromRoot performs a fresh drill down for the signature: issue the
// path's queries from the root downward until the first node that does not
// overflow (the static algorithm of [13], one drill-down instance). Every
// node query is a probe: only the returned node's tuples are read.
//
// On budget exhaustion it returns hiddendb.ErrBudgetExhausted together
// with the cost already spent.
func DrillFromRoot(s hiddendb.Searcher, t *Tree, sig Signature) (Outcome, error) {
	cost := 0
	for d := 0; d <= t.Depth(); d++ {
		r, err := s.Search(t.Probe(sig, d))
		if err != nil {
			return Outcome{Cost: cost}, err
		}
		cost++
		if !r.Overflow {
			return Outcome{Depth: d, Result: r, Cost: cost}, nil
		}
	}
	return Outcome{Cost: cost}, ErrLeafOverflow
}

// UpdateDrill refreshes a previous drill down that terminated at prevDepth
// in an earlier round (paper §3.2.2's three cases):
//
//  1. reissue the previous top node q;
//  2. if q overflows now, drill down from q;
//  3. otherwise roll up, verifying that the parent overflows — climbing
//     further whenever it does not — so that the returned node is exactly
//     the top non-overflowing node a from-root drill down would find
//     (overflow is monotone along the path).
//
// When the database did not change, this costs exactly two queries (one to
// reissue q, one to re-verify its parent), the constant the RS analysis
// (§4.1) relies on. Like DrillFromRoot, it marks every node query as a
// probe and returns the cost already spent with any query error.
func UpdateDrill(s hiddendb.Searcher, t *Tree, sig Signature, prevDepth int) (Outcome, error) {
	if prevDepth < 0 || prevDepth > t.Depth() {
		panic(fmt.Sprintf("querytree: previous depth %d out of range [0,%d]", prevDepth, t.Depth()))
	}
	cost := 0
	d := prevDepth
	r, err := s.Search(t.Probe(sig, d))
	if err != nil {
		return Outcome{Cost: cost}, err
	}
	cost++
	if r.Overflow {
		// Case 2: drill down below q.
		for d < t.Depth() {
			d++
			r2, err := s.Search(t.Probe(sig, d))
			if err != nil {
				return Outcome{Cost: cost}, err
			}
			cost++
			if !r2.Overflow {
				return Outcome{Depth: d, Result: r2, Cost: cost}, nil
			}
		}
		return Outcome{Cost: cost}, ErrLeafOverflow
	}
	// Cases 1 and 3: q does not overflow; climb until the parent overflows.
	for d > 0 {
		pr, err := s.Search(t.Probe(sig, d-1))
		if err != nil {
			return Outcome{Cost: cost}, err
		}
		cost++
		if pr.Overflow {
			return Outcome{Depth: d, Result: r, Cost: cost}, nil
		}
		d--
		r = pr
	}
	return Outcome{Depth: 0, Result: r, Cost: cost}, nil
}

// ExpectedDrillDepthLowerBound returns the paper's Theorem 3.2 lower bound
// on the expected number of queries of a from-root drill down,
// log(n/k)/log(max|Ui|). Diagnostic/analysis use only.
func ExpectedDrillDepthLowerBound(n, k, maxDomain int) float64 {
	if n <= k || maxDomain < 2 {
		return 1
	}
	return math.Log(float64(n)/float64(k)) / math.Log(float64(maxDomain))
}
