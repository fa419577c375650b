//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
