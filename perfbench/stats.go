package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// tailPercents are the tail candidates, highest first.
var tailPercents = []int{99, 95, 90}

// rank is the 1-based nearest-rank position of the pct-th percentile of
// n samples.
func rank(pct, n int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercent is the highest of p99/p95/p90 with at least ten samples
// beyond it at n samples, or 0 when none has.
func tailPercent(n int) int {
	for _, p := range tailPercents {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// percentileMs returns the pct-th percentile of the latencies in ms.
func percentileMs(lat []time.Duration, pct int) float64 {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[rank(pct, len(s))-1]) / 1e6
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// count is one number that depends only on the seed and the program:
// two runs of the same code and seed must print it identically.
type count struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// counter collects a run's exact counts in a fixed order.
type counter []count

func (c *counter) add(name string, v any) {
	var s string
	switch x := v.(type) {
	case float64:
		s = fmt.Sprintf("%.17g", x)
	case []int:
		parts := make([]string, len(x))
		for i, n := range x {
			parts[i] = fmt.Sprint(n)
		}
		s = strings.Join(parts, ",")
	default:
		s = fmt.Sprint(x)
	}
	*c = append(*c, count{Name: name, Value: s})
}

// diffCounts lists every count that differs between two runs, including
// counts present in only one of them.
func diffCounts(a, b []count) []string {
	bv := make(map[string]string, len(b))
	for _, x := range b {
		bv[x.Name] = x.Value
	}
	var out []string
	seen := make(map[string]bool, len(a))
	for _, x := range a {
		seen[x.Name] = true
		y, ok := bv[x.Name]
		switch {
		case !ok:
			out = append(out, x.Name+": missing in second run")
		case y != x.Value:
			out = append(out, fmt.Sprintf("%s: %s != %s", x.Name, x.Value, y))
		}
	}
	for _, x := range b {
		if !seen[x.Name] {
			out = append(out, x.Name+": missing in first run")
		}
	}
	return out
}
