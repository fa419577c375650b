// Package stats provides the replication machinery of the paper's
// evaluation: sample means, Student-t 90% confidence intervals, and the
// repeat-until-the-CI-is-within-±1% loop used for every data point.
package stats

import (
	"errors"
	"math"
)

// Summary describes a sample of replicated measurements.
type Summary struct {
	// N is the number of samples.
	N int
	// Mean is the sample mean.
	Mean float64
	// StdDev is the sample standard deviation (Bessel-corrected).
	StdDev float64
	// HalfWidth90 is the half-width of the 90% confidence interval of the
	// mean.
	HalfWidth90 float64
}

// RelativeCI returns HalfWidth90 / |Mean|. A degenerate all-zero sample
// (zero mean and zero standard deviation with at least two samples) has a
// zero-width interval around an exactly known mean, so its relative CI is 0
// — otherwise an identically-zero metric (a collided-copy count under the
// collision-free MAC, the delivery ratio when every node is crashed) could
// never satisfy any tolerance and a replication loop would always burn
// MaxRuns. A zero mean with nonzero spread stays +Inf: no finite tolerance
// describes it.
func (s Summary) RelativeCI() float64 {
	if s.Mean == 0 {
		if s.StdDev == 0 && s.N > 1 {
			return 0
		}
		return math.Inf(1)
	}
	return s.HalfWidth90 / math.Abs(s.Mean)
}

// t90 holds two-sided 90% Student-t critical values for small degrees of
// freedom; beyond the table the normal quantile 1.645 is used.
var t90 = []float64{
	math.Inf(1), // df = 0 (unused)
	6.314, 2.920, 2.353, 2.132, 2.015,
	1.943, 1.895, 1.860, 1.833, 1.812,
	1.796, 1.782, 1.771, 1.761, 1.753,
	1.746, 1.740, 1.734, 1.729, 1.725,
	1.721, 1.717, 1.714, 1.711, 1.708,
	1.706, 1.703, 1.701, 1.699, 1.697,
}

// T90 returns the two-sided 90% Student-t critical value for df degrees of
// freedom.
func T90(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(t90) {
		return t90[df]
	}
	switch {
	case df < 40:
		return 1.690
	case df < 60:
		return 1.676
	case df < 120:
		return 1.664
	default:
		return 1.645
	}
}

// ErrNoSamples is returned when a replication produced no valid samples.
var ErrNoSamples = errors.New("stats: no samples")

// ProgressUpdate reports the state of a replication loop. The serial and
// parallel engines fold samples in the same replication-index order, so for
// a given workload both emit the identical update sequence.
type ProgressUpdate struct {
	// Done is the number of accepted replications so far.
	Done int
	// Mean is the running sample mean.
	Mean float64
	// RelCI is the current relative CI half-width (+Inf before the spread
	// is estimable).
	RelCI float64
	// EstTotal estimates the total replications the tolerance will need,
	// from the CI half-width formula at the current running moments; the
	// remaining work (the ETA, in replicates) is EstTotal - Done. Clamped
	// to [max(MinRuns, Done), MaxRuns].
	EstTotal int
	// Converged is set on the final update of a loop that met its
	// tolerance.
	Converged bool
	// Exhausted is set on one extra final update when the loop hit MaxRuns
	// without converging (its Done repeats the last sample's update).
	Exhausted bool
}

// ReplicateOptions controls RunUntilCI.
type ReplicateOptions struct {
	// MinRuns is the minimum number of replications (default 30).
	MinRuns int
	// MaxRuns caps the replication count (default 2000).
	MaxRuns int
	// RelTol is the target relative CI half-width (default 0.01, the ±1%
	// criterion of the paper).
	RelTol float64
	// Progress, when non-nil, is called after every accepted sample (and
	// once more on MaxRuns exhaustion). Calls happen on the goroutine
	// driving the replication loop; the callback must be fast and must not
	// panic. It never affects the measured result.
	Progress func(ProgressUpdate)
}

func (o ReplicateOptions) withDefaults() ReplicateOptions {
	if o.MinRuns <= 0 {
		o.MinRuns = 30
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 2000
	}
	if o.MaxRuns < o.MinRuns {
		o.MaxRuns = o.MinRuns
	}
	if o.RelTol <= 0 {
		o.RelTol = 0.01
	}
	return o
}

// RunUntilCI repeats sample(i) for i = 0, 1, ... until the 90% confidence
// interval of the mean is within the relative tolerance (or MaxRuns is
// reached) and returns the summary. sample may return an error to skip a
// replication (e.g. a degenerate workload); if every replication fails,
// ErrNoSamples is returned.
func RunUntilCI(opts ReplicateOptions, sample func(i int) (float64, error)) (Summary, error) {
	opts = opts.withDefaults()
	var acc Accumulator
	var lastErr error
	for i := 0; i < opts.MaxRuns; i++ {
		x, err := sample(i)
		if err != nil {
			lastErr = err
			continue
		}
		if s, done := fold(&acc, x, opts); done {
			return s, nil
		}
	}
	return finish(&acc, opts, lastErr)
}

// fold adds one accepted sample and applies the stopping rule: once MinRuns
// samples are in, stop at the first sample whose running CI meets the
// tolerance. Shared by the serial and parallel engines so both stop at the
// same replication index with the same accumulator state (and emit the same
// progress updates).
func fold(acc *Accumulator, x float64, opts ReplicateOptions) (Summary, bool) {
	acc.Add(x)
	s := acc.Summary()
	done := acc.N() >= opts.MinRuns && s.RelativeCI() <= opts.RelTol
	if opts.Progress != nil {
		opts.Progress(ProgressUpdate{
			Done:      acc.N(),
			Mean:      s.Mean,
			RelCI:     s.RelativeCI(),
			EstTotal:  estimateTotal(acc, opts),
			Converged: done,
		})
	}
	if done {
		return s, true
	}
	return Summary{}, false
}

// finish terminates a replication loop that exhausted MaxRuns.
func finish(acc *Accumulator, opts ReplicateOptions, lastErr error) (Summary, error) {
	if acc.N() == 0 {
		if lastErr != nil {
			return Summary{}, lastErr
		}
		return Summary{}, ErrNoSamples
	}
	s := acc.Summary()
	if opts.Progress != nil {
		opts.Progress(ProgressUpdate{
			Done:      s.N,
			Mean:      s.Mean,
			RelCI:     s.RelativeCI(),
			EstTotal:  s.N,
			Exhausted: true,
		})
	}
	return s, nil
}

// estimateTotal estimates the total replication count the tolerance needs,
// evaluated at the current running moments:
//
//	t * sd / sqrt(N) <= tol * |mean|  =>  N >= (t * sd / (tol * |mean|))^2
//
// The estimate is clamped to [max(MinRuns, N), MaxRuns]. It only informs
// progress reporting and speculative wave sizing, never the result.
func estimateTotal(acc *Accumulator, opts ReplicateOptions) int {
	s := acc.Summary()
	total := s.N
	if total < opts.MinRuns {
		total = opts.MinRuns
	}
	if s.N >= 2 && s.Mean != 0 && s.StdDev != 0 {
		z := T90(s.N-1) * s.StdDev / (opts.RelTol * math.Abs(s.Mean))
		if needed := math.Ceil(z * z); needed > float64(total) {
			total = int(needed)
		}
	}
	if total > opts.MaxRuns {
		total = opts.MaxRuns
	}
	return total
}
