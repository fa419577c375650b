package stats

import "math"

// Accumulator maintains a running mean and variance with Welford's online
// algorithm, so the replication loops can test the CI criterion after every
// sample in O(1) instead of re-summarizing the whole slice (O(R) per
// replicate, O(R^2) per data point). Both RunUntilCI and RunUntilCIParallel
// fold samples through this type in replication-index order, which is what
// makes their results bit-identical.
type Accumulator struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of samples folded in so far.
func (a *Accumulator) N() int { return a.n }

// Summary materializes the current sample summary. It matches a two-pass
// summary of the same samples up to floating-point rounding (Welford vs
// two-pass).
func (a *Accumulator) Summary() Summary {
	switch a.n {
	case 0:
		return Summary{}
	case 1:
		return Summary{N: 1, Mean: a.mean, HalfWidth90: math.Inf(1)}
	}
	sd := math.Sqrt(a.m2 / float64(a.n-1))
	hw := T90(a.n-1) * sd / math.Sqrt(float64(a.n))
	return Summary{N: a.n, Mean: a.mean, StdDev: sd, HalfWidth90: hw}
}
