//go:build !race

package sim_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
