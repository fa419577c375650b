// Package experiments reproduces the paper's evaluation (Section 7): every
// figure and extension describes its data points — sweeping network size and
// density, or one parameter at n=100 — and one driver (driver.go) replicates
// each point until its confidence interval is tight and emits the same series
// the paper plots. Common random numbers are used across the algorithms of a
// figure: replication i of every series sees the same network and source.
package experiments

import (
	"runtime"

	"adhocbcast/internal/stats"
)

// RunConfig controls a figure reproduction.
type RunConfig struct {
	// Sizes lists the network sizes n (default 20..100 step 10).
	Sizes []int
	// Degrees lists the average degrees d (default 6 and 18).
	Degrees []int
	// Replicate controls the per-point replication loop. Zero fields take
	// the default criterion's (see Criterion: 30..200 runs, 3% CI); see
	// Paper for the paper's full ±1% criterion.
	Replicate stats.ReplicateOptions
	// Seed is the base seed; all workload randomness derives from it.
	Seed int64
	// Parallelism bounds the number of data points measured concurrently
	// (default GOMAXPROCS): all points of a figure or extension share one
	// pool of that many workers. Results are deterministic regardless: every
	// point's workloads derive from (Seed, n, d, replication) alone.
	Parallelism int
	// ReplicateParallelism bounds the number of replicates evaluated
	// concurrently within one data point (default 1 = serial). This is the
	// knob that splits the concurrency budget between points and
	// replicates: a figure sweep runs up to Parallelism points at once,
	// each running up to ReplicateParallelism replicates at once. Results
	// are bit-identical to the serial path for any setting (see
	// stats.RunUntilCIParallel); raise it when a run is replication-bound —
	// few points, the paper's ±1% criterion — rather than point-bound.
	ReplicateParallelism int
	// CrashFractions lists the crash-fraction sweep values of the
	// degradation experiments (default 0, 0.05, 0.1, 0.2, 0.3).
	CrashFractions []float64
	// LossRates lists the loss-rate sweep values of the degradation
	// experiments (default 0, 0.05, 0.1, 0.2, 0.3).
	LossRates []float64
	// HelloLossRates lists the hello-loss sweep values of the imperfect-view
	// experiments (default 0, 0.05, 0.1, 0.2, 0.3). These degrade view
	// formation, not the broadcast channel; see internal/hello.
	HelloLossRates []float64
	// RestartRates lists the restart-fraction sweep values of the
	// crash-recovery experiments (default 0, 0.1, 0.2, 0.3, 0.4): the
	// fraction of nodes that go down for one outage window mid-broadcast
	// and come back. See restart.go and docs/recovery.md.
	RestartRates []float64
	// TraceDir, when non-empty, exports every replicate of every data point
	// as JSONL (one file per point, see internal/obsv): a versioned run
	// record with counters, latency histogram, and forward-set distribution,
	// followed by the replicate's full event trace. Tracing attaches a
	// sim.Recorder and a Metrics record to each run, so instrumented results can
	// differ from uninstrumented ones only in cost, never in values. A point
	// that runs no simulation (the cluster extension's backbone sizes) exports
	// a sealed file holding no records.
	TraceDir string
	// Progress, when non-nil, receives a replication-progress update for
	// every completed replicate of every data point, keyed by the point
	// label. Points are measured concurrently, so the callback must be safe
	// for concurrent use. It never affects measured results.
	Progress func(point string, u stats.ProgressUpdate)
	// Runner, when non-nil, intercepts every data point's replication loop:
	// it receives the point label and a compute closure that runs the loop,
	// and returns the point's summary — either by calling compute or by
	// substituting a previously computed result. This is the hook
	// internal/grid uses to cache points content-addressed by their
	// configuration: a cache hit skips compute entirely, a miss runs it and
	// stores the summary. Points are measured concurrently, so the hook must
	// be safe for concurrent calls. A hook that always calls compute is
	// behavior-identical to no hook.
	Runner func(point string, compute func() (stats.Summary, error)) (stats.Summary, error)
}

func (rc RunConfig) withDefaults() RunConfig {
	if len(rc.Sizes) == 0 {
		rc.Sizes = []int{20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	if len(rc.Degrees) == 0 {
		rc.Degrees = []int{6, 18}
	}
	rc.Replicate = Criterion(rc.Replicate)
	if rc.Seed == 0 {
		rc.Seed = 42
	}
	if rc.Parallelism <= 0 {
		rc.Parallelism = runtime.GOMAXPROCS(0)
	}
	if rc.ReplicateParallelism <= 0 {
		rc.ReplicateParallelism = 1
	}
	if len(rc.CrashFractions) == 0 {
		rc.CrashFractions = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if len(rc.LossRates) == 0 {
		rc.LossRates = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if len(rc.HelloLossRates) == 0 {
		rc.HelloLossRates = []float64{0, 0.05, 0.1, 0.2, 0.3}
	}
	if len(rc.RestartRates) == 0 {
		rc.RestartRates = []float64{0, 0.1, 0.2, 0.3, 0.4}
	}
	return rc
}

// replicate runs one data point's replication loop through the serial or
// parallel engine according to ReplicateParallelism. Both paths produce
// bit-identical summaries (and progress sequences) for the same sample
// function. point names the data point in progress updates and trace files.
func (rc RunConfig) replicate(point string, sample func(i int) (float64, error)) (stats.Summary, error) {
	compute := func() (stats.Summary, error) {
		opts := rc.Replicate
		if rc.Progress != nil {
			opts.Progress = func(u stats.ProgressUpdate) { rc.Progress(point, u) }
		}
		if rc.ReplicateParallelism > 1 {
			return stats.RunUntilCIParallel(opts, rc.ReplicateParallelism, sample)
		}
		return stats.RunUntilCI(opts, sample)
	}
	if rc.Runner != nil {
		return rc.Runner(point, compute)
	}
	return compute()
}

// Criterion returns o with each zero field set to the default criterion's:
// 30 to 200 runs, until the 90% CI is within ±3% of the mean.
func Criterion(o stats.ReplicateOptions) stats.ReplicateOptions {
	if o.MinRuns == 0 {
		o.MinRuns = 30
	}
	if o.MaxRuns == 0 {
		o.MaxRuns = 200
	}
	if o.RelTol == 0 {
		o.RelTol = 0.03
	}
	return o
}

// Paper returns the paper's replication criterion: repeat until the 90%
// confidence interval is within ±1% of the mean.
func Paper() stats.ReplicateOptions {
	return stats.ReplicateOptions{MinRuns: 30, MaxRuns: 2000, RelTol: 0.01}
}

// Point is one averaged data point of a series.
type Point struct {
	// X is the network size n.
	X int
	// Mean is the average number of forward nodes.
	Mean float64
	// CI is the 90% confidence half-width of Mean.
	CI float64
	// Runs is the number of replications used.
	Runs int
}

// Series is one curve of a figure panel.
type Series struct {
	// Label matches the legend label in the paper.
	Label string
	// Points holds one point per network size, in Sizes order.
	Points []Point
}

// Panel is one subplot (a fixed density and view depth).
type Panel struct {
	// Title identifies the subplot, e.g. "d=6, 2-hop".
	Title string
	// Series holds the panel's curves.
	Series []Series
}

// Figure is one reproduced evaluation figure.
type Figure struct {
	// ID is the paper's figure number, e.g. "10".
	ID string
	// Title describes the experiment.
	Title string
	// Unit names the measured quantity (default "mean forward nodes").
	Unit string
	// Panels holds the subplots in the paper's order.
	Panels []Panel
}
