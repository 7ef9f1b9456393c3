// Package stats provides the small statistical substrate used throughout
// the estimators and the experiment harness: streaming moments (Welford's
// algorithm) with a Bessel-corrected sample variance — the paper's §4.2
// approximates population variances by the sample variances of the
// drill-down estimates — and the relative error the figures report.
package stats

import (
	"errors"
	"math"
)

// ErrNoData is returned by operations that need at least one observation.
var ErrNoData = errors.New("stats: no observations")

// Running accumulates a stream of float64 observations and exposes their
// count, mean and variance without storing the observations themselves.
// The zero value is ready to use.
//
// It implements Welford's online algorithm, which is numerically stable
// for the long, wide-magnitude streams produced by drill-down estimates
// (a single estimate can be zero or n·∏|Ui| apart).
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations added so far.
func (r *Running) N() int { return r.n }

// Mean returns the arithmetic mean of the observations (0 if none).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the Bessel-corrected sample variance (divide by n−1).
// It returns 0 when fewer than two observations have been added.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the Bessel-corrected sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Var()) }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.Mean(), nil
}

// RelativeError returns |est−truth| / |truth|. When truth is zero it
// returns 0 if est is also zero and +Inf otherwise, mirroring how the
// paper reports relative error for near-zero trans-round aggregates.
func RelativeError(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}
