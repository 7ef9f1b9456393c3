package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlags: with -selfserve (or -selfserve-router) each out-of-range
// database flag is refused with exit 2 and one stderr line naming the
// flag, before the in-process database is built.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "0"}, {"-m", "40"},
		{"-k", "0"},
		{"-n", "-5"},
		{"-insert", "-5"},
		{"-delete", "1.5"},
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
