// Package hiddendb simulates a hidden web database (paper §2.1): a
// collection of distinct categorical tuples reachable only through a
// restrictive top-k conjunctive search interface, with per-round query
// budgets and support for both the round-update and constant-update models.
//
// The package separates three capabilities:
//
//   - Store: full access to the data. Only the simulation harness touches
//     it — to apply updates and compute exact ground truth.
//   - Iface: the restricted search view (top-k, overflow flag, no counts).
//     This is all an estimator may use.
//   - Session: a per-round budget wrapper around an Iface (or any other
//     BatchSearcher, remote ones included), enforcing the
//     database-imposed limit G (paper §2.1: per-IP/per-key daily limits).
//
// # Concurrency contract
//
// Published Snapshots (and their posting lists) are immutable; any number
// of goroutines may answer queries against one concurrently. The store
// copies the tuple slice and list maps a snapshot shares before changing
// them and never writes a posting list once built (it installs a rebuilt
// one), so readers never observe a partial update. Per-query working
// memory comes from a process-wide sync.Pool of queryScratch values
// (scratch.go): a scratch is owned by exactly one goroutine from
// getScratch to putScratch, never escapes the query that borrowed it
// (results are freshly allocated), and holds no snapshot references while
// pooled.
// docs/perf.md describes the index layout and kernel selection rules.
package hiddendb

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/dynagg/dynagg/internal/schema"
)

// Pred is one conjunctive predicate Ai = v. Val may be schema.NullCode to
// express an IS NULL predicate over a nullable attribute.
type Pred struct {
	Attr int
	Val  uint16
}

// Query is a conjunctive search query: SELECT * FROM D WHERE Ai1=u1 AND ...
// The zero value is the unrestricted query SELECT * FROM D (the query tree
// root). Predicates are kept sorted by attribute index; a Query is
// immutable after construction.
//
// A query may be marked as a probe (Probe): its caller reads only the
// overflow flag when the answer overflows, so a local interface may answer
// an overflowing probe with no tuples. The mark is not part of the query's
// identity — Key, AppendKey and Preds ignore it — and any Searcher may
// ignore it; a remote one never sees it.
type Query struct {
	preds []Pred
	probe bool
}

// NewQuery builds a query from predicates. It panics on duplicate
// attributes, since queries are only built by trusted tree-walking code
// and a duplicate would silently corrupt selectivity math.
func NewQuery(preds ...Pred) Query {
	cp := make([]Pred, len(preds))
	copy(cp, preds)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Attr < cp[j].Attr })
	for i := 1; i < len(cp); i++ {
		if cp[i].Attr == cp[i-1].Attr {
			panic(fmt.Sprintf("hiddendb: duplicate predicate on attribute %d", cp[i].Attr))
		}
	}
	return Query{preds: cp}
}

// And returns a new query with one additional predicate.
func (q Query) And(attr int, val uint16) Query {
	preds := make([]Pred, 0, len(q.preds)+1)
	preds = append(preds, q.preds...)
	preds = append(preds, Pred{Attr: attr, Val: val})
	return NewQuery(preds...)
}

// Probe returns a copy of q marked as a probe: when its answer overflows
// the caller reads only Overflow, so the Result may carry no tuples.
// NewQuery and And return unmarked queries.
func (q Query) Probe() Query {
	q.probe = true
	return q
}

// Preds returns the query's predicates in attribute order. The caller must
// not modify the returned slice.
func (q Query) Preds() []Pred { return q.preds }

// Len returns the number of predicates.
func (q Query) Len() int { return len(q.preds) }

// keyBufPool recycles Key's encoding buffer across calls; only the
// returned string itself is allocated.
var keyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64)
	return &b
}}

// Key returns a canonical string encoding, usable as a cache/map key.
// It is called once per search on the hot path, so it appends digits
// directly (strconv) into a pooled buffer rather than going through
// fmt's reflection: at most one allocation per call, the string.
func (q Query) Key() string {
	if len(q.preds) == 0 {
		return ""
	}
	bp := keyBufPool.Get().(*[]byte)
	b := AppendPredsKey((*bp)[:0], q.preds)
	s := string(b)
	*bp = b
	keyBufPool.Put(bp)
	return s
}

// AppendKey appends the query's canonical key encoding to dst — the same
// bytes Key returns, without materializing the string. The serving fast
// path builds keys in pooled scratch and probes the answer cache with the
// raw bytes.
func (q Query) AppendKey(dst []byte) []byte {
	return AppendPredsKey(dst, q.preds)
}

// AppendPredsKey appends the canonical cache-key encoding of a sorted,
// duplicate-free predicate list: the bytes a Query over exactly those
// predicates returns from Key. Callers own the sortedness/uniqueness
// precondition (the HTTP handler sorts and validates wire predicates
// before probing the cache).
func AppendPredsKey(dst []byte, preds []Pred) []byte {
	for _, p := range preds {
		dst = strconv.AppendInt(dst, int64(p.Attr), 10)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, uint64(p.Val), 10)
		dst = append(dst, ';')
	}
	return dst
}

// String renders the query with attribute names from the schema.
func (q Query) String() string {
	if len(q.preds) == 0 {
		return "SELECT * FROM D"
	}
	parts := make([]string, len(q.preds))
	for i, p := range q.preds {
		parts[i] = fmt.Sprintf("A%d=%d", p.Attr+1, p.Val)
	}
	return "SELECT * FROM D WHERE " + strings.Join(parts, " AND ")
}

// Matches reports whether tuple t satisfies the query under the given NULL
// policy. With broad match enabled, a NULL value matches any predicate on
// its attribute (paper §5 "Other Issues").
func (q Query) Matches(t *schema.Tuple, broadMatchNull bool) bool {
	return matchesPreds(t, q.preds, broadMatchNull)
}

// matchesPreds is Matches over a predicate subset — the answering paths
// use it to filter only the predicates not already covered by a posting
// intersection or prefix range.
func matchesPreds(t *schema.Tuple, preds []Pred, broadMatchNull bool) bool {
	for _, p := range preds {
		v := t.Vals[p.Attr]
		if v == p.Val {
			continue
		}
		if broadMatchNull && v == schema.NullCode {
			continue
		}
		return false
	}
	return true
}

// prefixLen returns the number of leading predicates that form a prefix of
// the canonical attribute order 0,1,2,... — i.e., the longest L such that
// the query constrains exactly attributes 0..L-1 among its first L
// predicates. Prefix predicates with NULL values do not qualify (NULL
// sorts outside the domain range).
func (q Query) prefixLen() int {
	for i, p := range q.preds {
		if p.Attr != i || p.Val == schema.NullCode {
			return i
		}
	}
	return len(q.preds)
}

// Result is what the restrictive interface returns: at most k tuples
// (ranked by the proprietary scoring function) and an overflow flag.
// Crucially there is no total count — the estimators must work without
// COUNT metadata (paper §2.1 worst-case assumption). When a probe
// (Query.Probe) overflows, its Result may carry no tuples.
type Result struct {
	Tuples   []*schema.Tuple
	Overflow bool
}

// Underflow reports whether the query returned no tuples.
func (r Result) Underflow() bool { return len(r.Tuples) == 0 && !r.Overflow }

// Valid reports whether the query returned between 1 and k tuples
// (paper §2.1's definition of a valid query).
func (r Result) Valid() bool { return len(r.Tuples) > 0 && !r.Overflow }

// ErrBudgetExhausted is returned by Session.Search when the per-round
// query limit G has been reached.
var ErrBudgetExhausted = errors.New("hiddendb: per-round query budget exhausted")

// Searcher is the only view of the database available to estimators.
type Searcher interface {
	// Search issues one conjunctive query and returns its top-k result.
	// A Searcher may answer an overflowing probe (Query.Probe) with no
	// tuples, or ignore the mark and answer it in full.
	Search(q Query) (Result, error)
	// K returns the interface's result cap.
	K() int
	// Schema describes the queryable attributes.
	Schema() *schema.Schema
}

// BatchItem is one query's outcome within a batched search: either a
// Result or a per-query error (budget exhaustion for the queries a
// round's remaining budget could not cover).
type BatchItem struct {
	Result Result
	Err    error
}

// BatchSearcher is a Searcher that can answer many queries in one call —
// one snapshot/epoch pin, one round trip for remote implementations, one
// budget charge per query. The returned slice always has len(qs) items in
// query order. The error return is reserved for whole-batch transport
// failures (remote backends); per-query failures travel in the items.
// Iface, webiface.Client and Session implement it.
type BatchSearcher interface {
	Searcher
	// SearchBatch issues the queries as one batch.
	SearchBatch(qs []Query) ([]BatchItem, error)
}

// ConcurrentSearcher is a Searcher that can declare itself safe for
// concurrent Search calls from multiple goroutines. The estimator
// execution engine fans a round's planned drill-down walks out over a
// session only when it reports true; everything else falls back to
// sequential issuance. Session implements it (true unless a pre-search
// hook couples query order to database mutation), over a local or a
// remote backend alike.
type ConcurrentSearcher interface {
	Searcher
	// ConcurrentSearchable reports whether this instance currently
	// accepts Search calls from multiple goroutines.
	ConcurrentSearchable() bool
}
