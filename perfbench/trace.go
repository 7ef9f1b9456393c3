package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/tracking"
	"github.com/dynagg/dynagg/webiface"
)

// layer names the boundary a span was recorded at.
type layer uint8

const (
	layerOp      layer = iota // the op itself: a tracking round or a client request
	layerSearch               // hiddendb Session.Search (tracking)
	layerMutate               // hiddendb Store mutation (PreRound batch, pre-search hook)
	layerHandler              // webiface.Handler.ServeHTTP
	layerLookup               // Backend.LookupAnswer
	layerEngine               // Backend.SearchAnswer
	layerRouter               // router.Router.ServeHTTP
	layerShard                // router.ShardAdmin.ServeHTTP
	numLayers
)

var layerNames = [numLayers]string{
	"op", "hiddendb.search", "hiddendb.mutate", "webiface.handler",
	"hiddendb.lookup", "hiddendb.engine", "router", "router.shard",
}

// span is one timed call into a layer: name, start, end, parent and op.
type span struct {
	op     int32 // the round or request the span belongs to
	id     int32 // index in tracer.spans
	parent int32 // parent span id; -1 for an op's root
	layer  layer
	start  int64 // ns since tracer.base
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a run in memory; they are written out when
// the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(op, parent int32, l layer) int32 {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{op: op, id: id, parent: parent, layer: l, start: now, end: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// child opens a span under parent, in parent's op.
func (t *tracer) child(parent int32, l layer) int32 {
	t.mu.Lock()
	op := t.spans[parent].op
	t.mu.Unlock()
	return t.begin(op, parent, l)
}

// write stores the spans as tab-separated lines (op, id, parent, layer,
// start ns, end ns).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tid\tparent\tlayer\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, s.id, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slot holds the span a wrapper currently has open, so the wrappers it
// calls into can name it as their parent. Every workload runs one op at
// a time, so each wrapper has at most one span open.
type slot struct{ atomic.Int32 }

// traceID renders an op ID as the X-Dynagg-Trace value the client sends.
func traceID(op int) string { return fmt.Sprintf("%016x", op) }

// opFromHeader parses the op ID back out of X-Dynagg-Trace.
func opFromHeader(r *http.Request) (int32, bool) {
	v, err := strconv.ParseUint(r.Header.Get(obs.TraceHeader), 16, 31)
	return int32(v), err == nil
}

// tracedHTTP times an http.Handler for requests carrying an op ID;
// requests without one (handshake admin calls) pass through untraced.
func tracedHTTP(t *tracer, l layer, parent *slot, own *slot, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := opFromHeader(r)
		if !ok {
			inner.ServeHTTP(w, r)
			return
		}
		id := t.begin(op, parent.Load(), l)
		own.Store(id)
		inner.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedBackend is a webiface.Backend that times the answer lookups the
// handler makes; every other method forwards untouched.
type tracedBackend struct {
	webiface.Backend
	t      *tracer
	parent *slot
}

func (b *tracedBackend) LookupAnswer(key []byte) (*hiddendb.Answer, bool) {
	id := b.t.child(b.parent.Load(), layerLookup)
	a, ok := b.Backend.LookupAnswer(key)
	b.t.end(id)
	return a, ok
}

func (b *tracedBackend) SearchAnswer(q hiddendb.Query) (*hiddendb.Answer, error) {
	id := b.t.child(b.parent.Load(), layerEngine)
	a, err := b.Backend.SearchAnswer(q)
	b.t.end(id)
	return a, err
}

// tracedSession times each Search of a tracking round. It forwards
// ConcurrentSearchable and SearchBatch so the estimator's executor takes
// the same path it takes on the bare session.
type tracedSession struct {
	inner *hiddendb.Session
	t     *tracer
	round *slot
	own   *slot
}

var _ tracking.Session = (*tracedSession)(nil)
var _ hiddendb.ConcurrentSearcher = (*tracedSession)(nil)
var _ hiddendb.BatchSearcher = (*tracedSession)(nil)

func (s *tracedSession) Search(q hiddendb.Query) (hiddendb.Result, error) {
	id := s.t.child(s.round.Load(), layerSearch)
	s.own.Store(id)
	r, err := s.inner.Search(q)
	s.t.end(id)
	return r, err
}

func (s *tracedSession) SearchBatch(qs []hiddendb.Query) ([]hiddendb.BatchItem, error) {
	id := s.t.child(s.round.Load(), layerSearch)
	s.own.Store(id)
	items, err := s.inner.SearchBatch(qs)
	s.t.end(id)
	return items, err
}

func (s *tracedSession) ConcurrentSearchable() bool { return s.inner.ConcurrentSearchable() }
func (s *tracedSession) K() int                     { return s.inner.K() }
func (s *tracedSession) Schema() *schema.Schema     { return s.inner.Schema() }
func (s *tracedSession) Used() int                  { return s.inner.Used() }
func (s *tracedSession) Remaining() int             { return s.inner.Remaining() }
func (s *tracedSession) Budget() int                { return s.inner.Budget() }

// groupByOp splits spans into one group per op, in op order; each group
// keeps span-ID order.
func groupByOp(spans []span) [][]span {
	s := append([]span(nil), spans...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].op < s[j].op })
	var out [][]span
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j].op == s[i].op {
			j++
		}
		out = append(out, s[i:j])
		i = j
	}
	return out
}

// unionLen is the length of [lo, hi] covered by at least one interval.
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		if x[0] < lo {
			x[0] = lo
		}
		if x[1] > hi {
			x[1] = hi
		}
		if x[1] > x[0] {
			c = append(c, x)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range c {
		if open && x[0] <= curE {
			if x[1] > curE {
				curE = x[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes maps each span of one op to its duration minus the union of
// its children's intervals, so overlapping children are counted once.
func selfTimes(group []span) map[int32]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range group {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[int32]int64, len(group))
	for _, s := range group {
		out[s.id] = s.dur() - unionLen(children[s.id], s.start, s.end)
	}
	return out
}

// layerTotals sums a trace per layer.
type layerTotals struct {
	ops   int
	count [numLayers]int
	total [numLayers]int64 // Σ span durations
	self  [numLayers]int64 // Σ span self times
	busy  [numLayers]int64 // Σ over ops of the union of the layer's spans
	skew  int64            // Σ over ops of slowest minus fastest shard span
}

func summarize(spans []span) layerTotals {
	var lt layerTotals
	for _, g := range groupByOp(spans) {
		lt.ops++
		self := selfTimes(g)
		var iv [numLayers][][2]int64
		var shardMin, shardMax int64 = -1, -1
		for _, s := range g {
			lt.count[s.layer]++
			lt.total[s.layer] += s.dur()
			lt.self[s.layer] += self[s.id]
			iv[s.layer] = append(iv[s.layer], [2]int64{s.start, s.end})
			if s.layer == layerShard {
				if shardMin < 0 || s.dur() < shardMin {
					shardMin = s.dur()
				}
				if s.dur() > shardMax {
					shardMax = s.dur()
				}
			}
		}
		for l := range iv {
			if len(iv[l]) > 0 {
				lt.busy[l] += unionLen(iv[l], math.MinInt64, math.MaxInt64)
			}
		}
		if shardMax >= 0 {
			lt.skew += shardMax - shardMin
		}
	}
	return lt
}
