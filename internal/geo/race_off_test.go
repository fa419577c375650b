//go:build !race

package geo

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
