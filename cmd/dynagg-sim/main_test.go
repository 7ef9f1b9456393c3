package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The tracking table is pinned byte for byte at a small scale, once per
// kind of target: a single-round count, a trans-round delta and a sum.
func TestTableGolden(t *testing.T) {
	base := []string{"-n", "8000", "-m", "10", "-k", "100", "-g", "200", "-rounds", "5"}
	for name, extra := range map[string][]string{
		"count":    nil,
		"delta":    {"-agg", "delta"},
		"sumprice": {"-agg", "sumprice"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(append(base, extra...), &out, &errOut); code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("table differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", name, out.Bytes(), want)
			}
		})
	}
}

// A bad flag value exits 2 with one line naming the flag, before any
// database is built, and never panics. The runs ask for no rounds, so a
// missing check shows as exit 0 or a panic.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "0"}, {"-m", "40"},
		{"-k", "0"},
		{"-g", "0"}, {"-g", "-1"},
		{"-insert", "-5"},
		{"-delete", "1.5"}, {"-delete", "-0.1"}, {"-delete", "NaN"},
		{"-n", "-5"}, {"-initial", "-3"},
		{"-agg", "median"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append([]string{"-n", "2000", "-rounds", "0"}, args...), &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		msg := errOut.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args[0]) || out.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q; want one line naming %s and no table", args, msg, out.String(), args[0])
		}
	}
}
