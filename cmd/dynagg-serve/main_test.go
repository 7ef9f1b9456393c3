package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlags: each out-of-range database flag is refused with exit 2
// and one stderr line naming the flag, before a database is built. The
// listen address is one no listener accepts, so a flag the check missed
// fails the run instead of serving.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "0"}, {"-m", "40"},
		{"-k", "0"},
		{"-n", "-5"}, {"-initial", "-3"},
		{"-insert", "-5"},
		{"-delete", "1.5"}, {"-delete", "NaN"},
		{"-shards", "0"}, {"-shards", "-2", "-shard-mode"},
	} {
		var errOut bytes.Buffer
		if code := run(append([]string{"-addr", "-", "-n", "2000"}, args...), &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args[0]+" ") {
			t.Errorf("%v: stderr %q, want one line naming %s", args, msg, args[0])
		}
	}
}
