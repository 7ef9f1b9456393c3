// Package obs is the serving stack's observability kit: a lock-free
// latency histogram every daemon can record into on its hot path, the
// cross-process trace header the router stamps on fan-out requests, a
// fixed-size ring of recent slow/failed requests served at
// /v1/debug/requests, and the slog/pprof plumbing the three daemons
// share.
//
// The histogram is deliberately NOT a metrics registry: it is a fixed
// array of atomic counters with a compiled-in log2 bucket layout, so
// every recording site is a couple of atomic adds (no allocation, no
// lock, no map probe) and every scrape or merge across processes sees
// the exact same bucket boundaries. docs/observability.md documents the
// layout and the metric families built on it.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket layout: upper bounds are powers of two in nanoseconds,
// from 2^histMinShift (1.024µs) to 2^(histMinShift+NumBounds-1)
// (~34.4s), plus one overflow (+Inf) bucket. Log2 bucketing keeps
// Observe branch-free — the bucket index is one bits.Len64 — at the
// cost of factor-2 resolution, which is the standard trade for
// operational latency distributions.
const (
	histMinShift = 10 // smallest upper bound: 2^10 ns = 1.024µs
	// NumBounds is the number of finite bucket upper bounds; snapshots
	// carry NumBounds+1 counts (the last is the +Inf overflow bucket).
	NumBounds = 26
)

// histBounds is the shared finite-bound table in seconds.
var histBounds = func() []float64 {
	b := make([]float64, NumBounds)
	for i := range b {
		b[i] = float64(uint64(1)<<(histMinShift+i)) / float64(time.Second)
	}
	return b
}()

// Bounds returns the fixed histogram upper bounds in seconds (the +Inf
// bucket is implicit). The slice is shared — callers must not mutate it.
func Bounds() []float64 { return histBounds }

// Histogram is a lock-free, fixed-layout latency histogram. The zero
// value is ready; Observe is safe for any number of concurrent callers
// and performs no allocation. Values are recorded in nanoseconds and
// exposed in seconds (the Prometheus convention for latency families).
type Histogram struct {
	counts [NumBounds + 1]atomic.Uint64
	sumNs  atomic.Int64
}

// bucketIndex resolves the bucket for one observation. Bucket i covers
// (2^(histMinShift+i-1), 2^(histMinShift+i)] ns; everything at or below
// the first bound lands in bucket 0 and everything above the last in
// the overflow bucket.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(d)-1) - histMinShift
	if idx < 0 {
		return 0
	}
	if idx > NumBounds {
		return NumBounds
	}
	return idx
}

// Observe records one latency sample: two atomic adds, no allocation.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)].Add(1)
	h.sumNs.Add(int64(d))
}

// HistogramSnapshot is a point-in-time copy of a histogram, in the
// shape metrics.Builder.Histogram consumes.
type HistogramSnapshot struct {
	// Counts holds the per-bucket (non-cumulative) sample counts:
	// NumBounds finite buckets followed by the overflow bucket.
	Counts []uint64
	// Count is the total number of observations (sum of Counts).
	Count uint64
	// SumSeconds is the sum of all observed values in seconds.
	SumSeconds float64
}

// Snapshot copies the histogram's current state. Buckets are read
// individually (not as one atomic unit), which is fine for scrapes:
// counts only grow, and cumulative bucket sums stay monotone within any
// single snapshot by construction.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]uint64, NumBounds+1)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumSeconds = float64(h.sumNs.Load()) / float64(time.Second)
	return s
}
