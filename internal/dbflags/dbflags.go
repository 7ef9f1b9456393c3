// Package dbflags holds the rules for the flags that size a simulated
// Autos-like database. dynagg-sim, dynagg-serve, dynagg-fleet and
// dynagg-loadgen's self-serve mode check them before they build one, so
// a bad value is refused with one line naming the command's own flag
// instead of a panic inside the build.
package dbflags

import "fmt"

// DB holds one command's database flag values. Prefix is what the
// command writes before each flag's usual name: "" for -n, "local-" for
// -local-n. A command without one of these flags leaves its value zero,
// which passes.
type DB struct {
	Prefix  string
	N       int     // tuple pool size (-n)
	Initial int     // initial database size (-initial)
	M       int     // attributes (-m)
	K       int     // interface top-k cap (-k)
	Insert  int     // tuples inserted per round (-insert)
	Delete  float64 // fraction of tuples deleted per round (-delete)
}

// Check returns an error naming the first flag whose value breaks its
// rule, or nil.
func (d DB) Check() error {
	for _, c := range []struct {
		bad        bool
		name, rule string
	}{
		{d.N < 0, "n", "must be at least 0"},
		{d.Initial < 0, "initial", "must be at least 0"},
		{d.M < 1 || d.M > 38, "m", "must be in [1, 38]"}, // the Autos attributes
		{d.K < 1, "k", "must be at least 1"},
		{d.Insert < 0, "insert", "must be at least 0"},
		{!(d.Delete >= 0 && d.Delete <= 1), "delete", "must be in [0, 1]"},
	} {
		if c.bad {
			return fmt.Errorf("-%s%s %s", d.Prefix, c.name, c.rule)
		}
	}
	return nil
}
