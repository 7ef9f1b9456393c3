//go:build race

package hiddendb

const raceEnabled = true
