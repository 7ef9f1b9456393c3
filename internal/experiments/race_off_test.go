//go:build !race

package experiments

// raceEnabled reports whether the race detector is active;
// TestFiguresGolden is skipped under -race, where eighteen instrumented
// figures would take minutes and prove nothing the plain run does not.
const raceEnabled = false
