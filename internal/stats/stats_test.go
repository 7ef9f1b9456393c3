package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

// running accumulates xs into a fresh Running.
func running(xs ...float64) Running {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r
}

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Var() != 0 {
		t.Fatalf("zero value not neutral: %+v", r)
	}
	r = running(2, 4, 4, 4, 5, 5, 7, 9)
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if got := r.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := r.Var(); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want 32/7", got)
	}
	if got := r.StdDev(); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Var() != 0 {
		t.Errorf("variance with one observation should be 0, got %v", r.Var())
	}
	if r.Mean() != 42 {
		t.Errorf("Mean = %v, want 42", r.Mean())
	}
}

// Property: Running matches the naive two-pass computation.
func TestRunningMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 3.0
		}
		r := running(xs...)
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		return almostEqual(r.Mean(), mean, 1e-9) && almostEqual(r.Var(), naiveVar, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrNoData {
		t.Errorf("Mean(nil) err = %v, want ErrNoData", err)
	}
	m, err := Mean([]float64{1, 2, 3})
	if err != nil || !almostEqual(m, 2, 1e-12) {
		t.Errorf("Mean = %v, %v", m, err)
	}
}

func TestSampleVar(t *testing.T) {
	if r := running(5); r.Var() != 0 {
		t.Errorf("Var single = %v, want 0", r.Var())
	}
	if r := running(1, 1, 1, 1); r.Var() != 0 {
		t.Errorf("Var constant = %v, want 0", r.Var())
	}
	if r := running(1, 3); !almostEqual(r.Var(), 2, 1e-12) {
		t.Errorf("Var{1,3} = %v, want 2", r.Var())
	}
}

func TestRelativeError(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{110, 100, 0.10},
		{90, 100, 0.10},
		{-90, -100, 0.10},
		{0, 0, 0},
		{100, 100, 0},
	}
	for _, c := range cases {
		if got := RelativeError(c.est, c.truth); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("RelativeError(%v,%v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(1,0) = %v, want +Inf", got)
	}
}
