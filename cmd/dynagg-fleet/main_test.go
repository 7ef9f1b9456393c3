package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlags: each out-of-range flag of the local target's database is
// refused with exit 2 and one stderr line naming the flag, before the
// database is built. A flag the check missed runs one empty tick and
// exits 0.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-local-m", "0"}, {"-local-m", "40"},
		{"-local-k", "0"},
		{"-local-n", "-5"},
		{"-local-insert", "-5"},
		{"-local-delete", "1.5"},
	} {
		var errOut bytes.Buffer
		base := []string{"-addr", "", "-ticks", "1", "-tick", "1ms", "-local-n", "2000"}
		if code := run(append(base, args...), &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args[0]+" ") {
			t.Errorf("%v: stderr %q, want one line naming %s", args, msg, args[0])
		}
	}
}
