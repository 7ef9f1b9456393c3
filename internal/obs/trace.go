package obs

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the cross-process request-correlation header. The
// router stamps it on every incoming search (honouring an existing
// value so external callers can bring their own IDs) and puts it on the
// request context, webiface.Client forwards it on each fan-out hop, and
// each daemon's request log and structured logs carry it — so one slow
// query can be followed from the router's /v1/debug/requests entry to
// the shard daemon's.
const TraceHeader = "X-Dynagg-Trace"

// traceSeed randomises the per-process trace namespace so IDs from
// different daemons never collide; traceCtr orders IDs within it.
var (
	traceSeed = rand.Uint64()
	traceCtr  atomic.Uint64
)

// NewTraceID returns a 16-hex-digit process-unique trace ID.
func NewTraceID() string {
	// SplitMix64 finalizer over seed+counter: cheap, well-mixed, and
	// every process draws from its own random namespace.
	x := traceSeed + traceCtr.Add(1)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	var buf [16]byte
	const hex = "0123456789abcdef"
	for i := range buf {
		buf[i] = hex[x>>(60-4*i)&0xf]
	}
	return string(buf[:])
}

type traceKey struct{}

// WithTrace returns a context carrying the trace ID, the plumb between
// the router's request, the webiface.Client hops it fans out on and the
// request's ring record.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID extracts the context's trace ID ("" when none is set).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// ShardTiming is one shard's share of a routed request, recorded in the
// router's request log so a slow fan-out attributes its tail.
type ShardTiming struct {
	Shard      int     `json:"shard"`
	DurationMs float64 `json:"duration_ms"`
	Error      string  `json:"error,omitempty"`
}

// Fanout collects one routed request's per-shard timings. The router
// puts an empty one on the request context, its fan-out fills it in,
// and the serving handler copies it into the request's ring record.
type Fanout struct {
	Shards []ShardTiming
}

type fanoutKey struct{}

// WithFanout returns a context carrying f.
func WithFanout(ctx context.Context, f *Fanout) context.Context {
	return context.WithValue(ctx, fanoutKey{}, f)
}

// FanoutFrom extracts the context's Fanout (nil when none is set).
func FanoutFrom(ctx context.Context) *Fanout {
	f, _ := ctx.Value(fanoutKey{}).(*Fanout)
	return f
}

// RequestRecord is one entry in a daemon's recent-request ring.
type RequestRecord struct {
	Time       time.Time     `json:"time"`
	Trace      string        `json:"trace,omitempty"`
	Route      string        `json:"route"`
	Status     int           `json:"status"`
	DurationMs float64       `json:"duration_ms"`
	Outcome    string        `json:"outcome,omitempty"` // hit | miss | error | ...
	Epoch      uint64        `json:"epoch,omitempty"`   // store version / fleet epoch answered from
	Detail     string        `json:"detail,omitempty"`  // error message or extra context
	Shards     []ShardTiming `json:"shards,omitempty"`  // router only: per-shard fan-out timings
}

// RequestLog is a fixed-size ring of recent slow or failed requests,
// served at /v1/debug/requests on the serving daemons. Recording takes
// a mutex and allocates — callers keep it off the hot path by gating on
// Qualifies first, which is two comparisons.
type RequestLog struct {
	slow time.Duration

	mu   sync.Mutex
	buf  []RequestRecord
	next int
	n    int
}

// NewRequestLog sizes the ring. size <= 0 disables recording entirely;
// slow <= 0 records every request (useful in tests and short debugging
// sessions), otherwise only requests at or above the threshold — plus
// every failure, regardless of latency — are kept.
func NewRequestLog(size int, slow time.Duration) *RequestLog {
	l := &RequestLog{slow: slow}
	if size > 0 {
		l.buf = make([]RequestRecord, size)
	}
	return l
}

// Qualifies reports whether a request with the given latency/failure
// outcome should be recorded. It takes no lock and allocates nothing,
// so hot paths can call it unconditionally.
func (l *RequestLog) Qualifies(d time.Duration, failed bool) bool {
	if l == nil || l.buf == nil {
		return false
	}
	return failed || d >= l.slow
}

// Record appends one entry, evicting the oldest once the ring is full.
func (l *RequestLog) Record(rec RequestRecord) {
	if l == nil || l.buf == nil {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	l.mu.Lock()
	l.buf[l.next] = rec
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Snapshot returns the recorded entries, newest first.
func (l *RequestLog) Snapshot() []RequestRecord {
	if l == nil || l.buf == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RequestRecord, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// debugWire is the /v1/debug/requests response body.
type debugWire struct {
	SlowThresholdMs float64         `json:"slow_threshold_ms"`
	Records         []RequestRecord `json:"records"`
}

// ServeJSON writes the ring as the /v1/debug/requests JSON body
// (records newest first; an empty ring serialises as []).
func (l *RequestLog) ServeJSON(w http.ResponseWriter) {
	recs := l.Snapshot()
	if recs == nil {
		recs = []RequestRecord{}
	}
	var slow time.Duration
	if l != nil {
		slow = l.slow
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(debugWire{
		SlowThresholdMs: float64(slow) / float64(time.Millisecond),
		Records:         recs,
	})
}

// DurationMs renders a duration in float milliseconds, the unit the
// request log and status bodies use.
func DurationMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
