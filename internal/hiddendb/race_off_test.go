//go:build !race

package hiddendb

// raceEnabled reports whether the race detector is active; alloc-count
// assertions are skipped under -race, where sync.Pool drops items at
// random and the scratch pool stops absorbing allocations.
const raceEnabled = false
