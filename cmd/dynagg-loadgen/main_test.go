package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestBadFlags: each out-of-range flag is refused with exit 2 and one
// stderr line naming the flag, before the in-process database is built.
// The database flags are checked with -selfserve or -selfserve-router.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "0"}, {"-m", "40"},
		{"-k", "0"},
		{"-n", "-5"},
		{"-clients", "0"},
		{"-queries", "0"},
		{"-duration", "0"}, {"-duration", "-1s"},
		{"-warmup", "-1s"},
	} {
		for _, mode := range [][]string{{"-selfserve"}, {"-selfserve-router", "2"}} {
			var errOut bytes.Buffer
			base := append(mode, "-n", "2000", "-duration", "1ms", "-warmup", "0", "-out", t.TempDir()+"/report.json")
			if code := run(append(base, args...), &errOut); code != 2 {
				t.Errorf("%v %v: exit %d, want 2", mode, args, code)
			}
			if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args[0]+" ") {
				t.Errorf("%v %v: stderr %q, want one line naming %s", mode, args, msg, args[0])
			}
		}
	}
}

// TestReport loads both self-served targets for 300 ms a pass and reads
// the report back: every pass answered requests without an error or a
// 429, its histogram counts every recorded request, and only -compare
// writes the cold/hot ratio.
func TestReport(t *testing.T) {
	for _, c := range []struct {
		mode   []string
		passes []string
	}{
		{[]string{"-selfserve", "-compare"}, []string{"cold", "hot"}},
		{[]string{"-selfserve-router", "2"}, []string{"load"}},
	} {
		out := t.TempDir() + "/report.json"
		var errOut bytes.Buffer
		args := append(c.mode, "-n", "2000", "-duration", "300ms", "-warmup", "0", "-out", out)
		if code := run(args, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", c.mode, code, errOut.String())
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		if len(rep.Passes) != len(c.passes) {
			t.Fatalf("%v: %d passes, want %v", c.mode, len(rep.Passes), c.passes)
		}
		for i, p := range rep.Passes {
			if p.Name != c.passes[i] || p.Requests <= 0 || p.Errors != 0 || p.Status429 != 0 {
				t.Errorf("%v: pass %q: %d requests, %d errors, %d 429s; want pass %q with requests and no errors",
					c.mode, p.Name, p.Requests, p.Errors, p.Status429, c.passes[i])
			}
			if p.Histogram == nil || int64(p.Histogram.Count) != p.Requests {
				t.Errorf("%v: pass %q: histogram %+v does not count its %d requests", c.mode, p.Name, p.Histogram, p.Requests)
			}
		}
		if compare := slices.Contains(c.mode, "-compare"); (rep.ColdHot != nil) != compare {
			t.Errorf("%v: cold_hot %+v, want it only with -compare", c.mode, rep.ColdHot)
		}
	}
}
