package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndex pins the fixed layout: every bound's edge cases land
// in the bucket whose upper bound covers them, zero and negatives in
// the first, and the overflow above the last bound.
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{1, 0},
		{1024, 0},                   // exactly the first bound
		{1025, 1},                   // just past it
		{2048, 1},                   // exactly the second bound
		{2049, 2},                   // just past it
		{time.Hour, NumBounds},      // way above the last bound → overflow
		{time.Microsecond, 0},       // 1000ns ≤ 1024ns
		{time.Millisecond, 10},      // 1e6 ns ∈ (2^19, 2^20]
		{100 * time.Microsecond, 7}, // 1e5 ns ∈ (2^16, 2^17]
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// The exact last bound lands in the last finite bucket; one past it
	// overflows.
	lastBound := time.Duration(uint64(1) << (histMinShift + NumBounds - 1))
	if got := bucketIndex(lastBound); got != NumBounds-1 {
		t.Errorf("bucketIndex(last bound %v) = %d, want %d", lastBound, got, NumBounds-1)
	}
	if got := bucketIndex(lastBound + 1); got != NumBounds {
		t.Errorf("bucketIndex(last bound+1) = %d, want overflow %d", got, NumBounds)
	}
}

// TestBoundsShape: the bound table is strictly increasing, starts at
// 1.024µs and each bound doubles the last — the deterministic layout
// merges and scrapes rely on.
func TestBoundsShape(t *testing.T) {
	b := Bounds()
	if len(b) != NumBounds {
		t.Fatalf("len(Bounds()) = %d, want %d", len(b), NumBounds)
	}
	if b[0] != 1024e-9 {
		t.Errorf("first bound %g, want 1.024e-06", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Errorf("bound %d = %g, want double of %g", i, b[i], b[i-1])
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(time.Millisecond)      // bucket 10
	h.Observe(time.Hour)             // overflow
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d, want 3", s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[10] != 1 || s.Counts[NumBounds] != 1 {
		t.Fatalf("unexpected bucket counts: %v", s.Counts)
	}
	wantSum := (500*time.Nanosecond + time.Millisecond + time.Hour).Seconds()
	if diff := s.SumSeconds - wantSum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sum %g, want %g", s.SumSeconds, wantSum)
	}
}

// TestHistogramObserveAllocs: Observe is the hot-path primitive — it
// must not allocate (the webiface warm-GET ≤1-alloc budget depends on
// it).
func TestHistogramObserveAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", n)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines —
// the lock-freedom proof under make race — and checks no sample is
// lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
}

func TestNewTraceID(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if got := TraceID(ctx); got != "" {
		t.Fatalf("empty context trace = %q", got)
	}
	ctx = WithTrace(ctx, "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Fatalf("trace = %q, want abc123", got)
	}
	if got := TraceID(WithTrace(context.Background(), "")); got != "" {
		t.Fatalf("empty trace should not be stored, got %q", got)
	}
}

func TestRequestLogRingAndThreshold(t *testing.T) {
	l := NewRequestLog(3, 50*time.Millisecond)
	if l.Qualifies(time.Millisecond, false) {
		t.Error("fast success should not qualify")
	}
	if !l.Qualifies(time.Millisecond, true) {
		t.Error("failure must always qualify")
	}
	if !l.Qualifies(60*time.Millisecond, false) {
		t.Error("slow success must qualify")
	}
	for i := 1; i <= 5; i++ {
		l.Record(RequestRecord{Route: "search", Status: 200, DurationMs: float64(i)})
	}
	recs := l.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("ring kept %d records, want 3", len(recs))
	}
	// Newest first: durations 5, 4, 3.
	for i, want := range []float64{5, 4, 3} {
		if recs[i].DurationMs != want {
			t.Errorf("record %d duration %v, want %v", i, recs[i].DurationMs, want)
		}
	}

	// Disabled and nil logs are inert.
	var nilLog *RequestLog
	if nilLog.Qualifies(time.Hour, true) {
		t.Error("nil log must not qualify")
	}
	nilLog.Record(RequestRecord{})
	disabled := NewRequestLog(0, 0)
	if disabled.Qualifies(time.Hour, true) {
		t.Error("disabled log must not qualify")
	}
	disabled.Record(RequestRecord{})
	if got := disabled.Snapshot(); got != nil {
		t.Errorf("disabled snapshot = %v, want nil", got)
	}

	// slow <= 0 records everything.
	all := NewRequestLog(2, 0)
	if !all.Qualifies(0, false) {
		t.Error("zero threshold should record every request")
	}
}

func TestRequestLogServeJSON(t *testing.T) {
	l := NewRequestLog(4, 25*time.Millisecond)
	l.Record(RequestRecord{
		Trace: "deadbeef", Route: "search", Status: 200, DurationMs: 31.5,
		Outcome: "miss", Epoch: 7,
		Shards: []ShardTiming{{Shard: 0, DurationMs: 30.1}, {Shard: 1, DurationMs: 12.0, Error: "timeout"}},
	})
	rec := httptest.NewRecorder()
	l.ServeJSON(rec)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var body struct {
		SlowThresholdMs float64         `json:"slow_threshold_ms"`
		Records         []RequestRecord `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.SlowThresholdMs != 25 {
		t.Errorf("slow_threshold_ms = %v, want 25", body.SlowThresholdMs)
	}
	if len(body.Records) != 1 || body.Records[0].Trace != "deadbeef" || len(body.Records[0].Shards) != 2 {
		t.Fatalf("unexpected records: %+v", body.Records)
	}

	// An empty ring serialises records as [], not null.
	empty := httptest.NewRecorder()
	NewRequestLog(2, 0).ServeJSON(empty)
	if !strings.Contains(empty.Body.String(), `"records":[]`) {
		t.Errorf("empty ring body: %s", empty.Body.String())
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	log, err := NewLogger("json", &sb)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", "trace", "abc")
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatalf("json log line not JSON: %v (%s)", err, sb.String())
	}
	if m["msg"] != "hello" || m["trace"] != "abc" {
		t.Fatalf("unexpected log line: %v", m)
	}

	sb.Reset()
	log, err = NewLogger("text", &sb)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello")
	if !strings.Contains(sb.String(), "msg=hello") {
		t.Fatalf("text log line: %s", sb.String())
	}

	if _, err := NewLogger("xml", nil); err == nil {
		t.Fatal("want error for unknown format")
	}
}
