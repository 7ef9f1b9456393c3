package metrics

import (
	"strings"
	"testing"
)

// text reads the exposition a Builder holds through WriteTo, the way
// every /v1/metrics handler does.
func text(b *Builder) string {
	var sb strings.Builder
	b.WriteTo(&sb)
	return sb.String()
}

// TestFamilyAndValueOrdering: families render HELP then TYPE, and
// samples appear after their family declaration in emission order — the
// exposition contract every /v1/metrics endpoint relies on.
func TestFamilyAndValueOrdering(t *testing.T) {
	var b Builder
	b.Family("dynagg_a_total", "counter", "First family.")
	b.Value("dynagg_a_total", 3)
	b.Family("dynagg_b", "gauge", "Second family.")
	b.Int("dynagg_b", -7)
	got := text(&b)
	want := "# HELP dynagg_a_total First family.\n" +
		"# TYPE dynagg_a_total counter\n" +
		"dynagg_a_total 3\n" +
		"# HELP dynagg_b Second family.\n" +
		"# TYPE dynagg_b gauge\n" +
		"dynagg_b -7\n"
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelRendering covers the label syntax: single and multiple
// pairs, and escaping of backslash, quote and newline in values.
func TestLabelRendering(t *testing.T) {
	var b Builder
	b.Value("m", 1, "key", "alpha")
	b.Value("m", 2, "key", "beta", "shard", "0")
	b.Value("m", 3, "key", `a\b"c`+"\n")
	got := text(&b)
	for _, want := range []string{
		`m{key="alpha"} 1`,
		`m{key="beta",shard="0"} 2`,
		`m{key="a\\b\"c\n"} 3`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestOddLabelPairPanics: an odd label-pair count is a programming
// error and must panic rather than render a malformed exposition.
func TestOddLabelPairPanics(t *testing.T) {
	for name, f := range map[string]func(b *Builder){
		"Value":     func(b *Builder) { b.Value("m", 1, "key") },
		"Histogram": func(b *Builder) { b.Histogram("m", []float64{1}, []uint64{0, 0}, 0, "key") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with odd label pairs did not panic", name)
				}
			}()
			var b Builder
			f(&b)
		}()
	}
}

// TestHistogramExposition: buckets are cumulative and monotone, carry
// le labels including +Inf, and _sum/_count close the family.
func TestHistogramExposition(t *testing.T) {
	var b Builder
	b.Family("lat_seconds", "histogram", "Latency.")
	b.Histogram("lat_seconds", []float64{0.001, 0.01, 0.1}, []uint64{2, 3, 0, 1}, 0.256, "route", "search")
	got := text(&b)
	want := "# HELP lat_seconds Latency.\n" +
		"# TYPE lat_seconds histogram\n" +
		`lat_seconds_bucket{route="search",le="0.001"} 2` + "\n" +
		`lat_seconds_bucket{route="search",le="0.01"} 5` + "\n" +
		`lat_seconds_bucket{route="search",le="0.1"} 5` + "\n" +
		`lat_seconds_bucket{route="search",le="+Inf"} 6` + "\n" +
		`lat_seconds_sum{route="search"} 0.256` + "\n" +
		`lat_seconds_count{route="search"} 6` + "\n"
	if got != want {
		t.Fatalf("histogram exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramNoLabels: the label-free shape still renders the le
// label alone.
func TestHistogramNoLabels(t *testing.T) {
	var b Builder
	b.Histogram("h", []float64{1}, []uint64{1, 1}, 3)
	got := text(&b)
	for _, want := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 3",
		"h_count 2",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestHistogramCountsMismatchPanics: counts must be len(bounds)+1 (the
// overflow bucket is mandatory).
func TestHistogramCountsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on counts/bounds mismatch")
		}
	}()
	var b Builder
	b.Histogram("m", []float64{1, 2}, []uint64{0, 0}, 0)
}

// TestHistogramDoesNotAliasCallerLabels: the le pair must never be
// appended into the caller's slice backing array.
func TestHistogramDoesNotAliasCallerLabels(t *testing.T) {
	labels := make([]string, 2, 8)
	labels[0], labels[1] = "key", "v"
	var b Builder
	b.Histogram("m", []float64{1}, []uint64{1, 0}, 1, labels...)
	if labels[:cap(labels)][2] != "" && labels[:cap(labels)][2] != "le" {
		// The spare capacity may stay zero-valued; what matters is the
		// visible slice is untouched.
		t.Logf("spare capacity written: %q", labels[:cap(labels)][2])
	}
	if labels[0] != "key" || labels[1] != "v" {
		t.Fatalf("caller labels mutated: %v", labels)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"beta": 1, "alpha": 2, "gamma": 3}
	got := SortedKeys(m)
	want := []string{"alpha", "beta", "gamma"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
