package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
)

// The scale sweep is the beyond-the-paper workload: the paper evaluates
// n <= 100, while the grid-indexed topology engine makes tens of thousands
// of nodes generatable in milliseconds, so the broadcast protocols themselves
// become the measured quantity. Unlike the figure sweeps — which hold every
// (variant, size) point concurrently and replicate until a CI criterion —
// the scale sweep streams: one network is alive per worker at a time,
// per-variant metrics fold into constant-size Welford accumulators, and each
// completed point is emitted before the next begins, so a 25,000-node sweep
// holds megabytes, not gigabytes.

// ScaleConfig controls a large-n scale sweep.
type ScaleConfig struct {
	// Sizes lists the network sizes, swept in order (default 1000, 5000,
	// 10000, 25000, 100000, 1000000).
	Sizes []int
	// Degree is the target average degree (default 18). Random unit disk
	// graphs need average degree on the order of log n to be connected, so
	// the paper's sparse d=6 setting stops being generatable between n=1,000
	// and n=10,000 — the generator's rejection sampling will exhaust its
	// attempts and report the largest component it saw.
	Degree int
	// Replicates is the fixed per-point replication count (default 5; the
	// per-run variance of ratio metrics shrinks with n, so scale points need
	// far fewer replicates than the paper's n<=100 points). Points with
	// n >= 100,000 cap the count at 2: at that scale the ratio metrics are
	// essentially deterministic and each replicate costs minutes.
	Replicates int
	// Seed is the base workload seed (default 42).
	Seed int64
	// Parallelism bounds the replicates evaluated concurrently within a
	// point (default GOMAXPROCS). Results are deterministic for any value:
	// every replicate derives from (Seed, n, d, rep) alone and metrics fold
	// in replicate order.
	Parallelism int
	// Hops is the local-view depth (default 2).
	Hops int
	// Emit, when non-nil, receives each completed row as soon as its point
	// finishes, in (size, variant) order — ScaleWriter is the hook that
	// prints results while later, larger points are still running. Emit
	// fires for cached rows too when a Runner substitutes stored results.
	Emit func(ScaleRow)
	// Runner, when non-nil, intercepts each size point's computation: it
	// receives the point label and a compute closure that measures the
	// point's variant rows, and returns those rows — either by calling
	// compute or by substituting previously computed ones. This is the hook
	// internal/grid uses to cache scale points; see RunConfig.Runner.
	Runner func(point string, compute func() ([]ScaleRow, error)) ([]ScaleRow, error)
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 5000, 10000, 25000, 100000, 1000000}
	}
	if c.Degree == 0 {
		c.Degree = 18
	}
	if c.Replicates <= 0 {
		c.Replicates = 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Hops <= 0 {
		c.Hops = 2
	}
	return c
}

// repsFor returns the replicate count for one size point: the configured
// count, capped at 2 for the 100k+ points (see ScaleConfig.Replicates).
func (c ScaleConfig) repsFor(n int) int {
	if n >= 100000 && c.Replicates > 2 {
		return 2
	}
	return c.Replicates
}

// ScaleRow is one (size, variant) result of a scale sweep. Delivery and
// Forward are percentages of n; Latency is the mean first-delivery time in
// transmission slots across delivered nodes. The CI fields are 90%
// confidence half-widths over the replicates.
type ScaleRow struct {
	N          int
	Variant    string
	Replicates int
	Delivery   float64
	DeliveryCI HalfWidth
	Forward    float64
	ForwardCI  HalfWidth
	Latency    float64
	LatencyCI  HalfWidth
}

// scaleVariants are the design-space corners the sweep carries to scale:
// blind flooding as the baseline, then the generic framework's static,
// first-receipt, and first-receipt-with-backoff timing policies.
func scaleVariants() []variant {
	return []variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-Static", make: func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) }},
		{label: "Generic-FR", make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
		{label: "Generic-FRB", make: func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }},
	}
}

// scaleSeed derives the deterministic workload seed of one (n, rep) cell.
// Variants are excluded: every variant of a replicate sees the same network
// and source (common random numbers), exactly like the figure sweeps.
func scaleSeed(base int64, n, d, rep int) int64 {
	return deriveSeed("scale", base, n, d, rep)
}

// Scale runs the large-n sweep and returns one row per (size, variant), in
// sweep order. Points run strictly in size order; within a point, replicates
// run on up to Parallelism workers, each holding one generated network at a
// time.
func Scale(cfg ScaleConfig) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	variants := scaleVariants()
	points := make([]fixedPoint[ScaleRow], len(cfg.Sizes))
	for k, n := range cfg.Sizes {
		nreps := cfg.repsFor(n)
		points[k] = fixedPoint[ScaleRow]{
			label: fmt.Sprintf("scale/n=%d/d=%d/reps=%d", n, cfg.Degree, nreps),
			reps:  nreps,
			replicate: func(rep int, arena *sim.Arena) ([][]float64, error) {
				return scaleReplicate(cfg, variants, n, rep, arena)
			},
			row: func(vi int, m []stats.Summary) ScaleRow {
				return ScaleRow{
					N:          n,
					Variant:    variants[vi].label,
					Replicates: nreps,
					Delivery:   m[0].Mean, DeliveryCI: HalfWidth(m[0].HalfWidth90),
					Forward: m[1].Mean, ForwardCI: HalfWidth(m[1].HalfWidth90),
					Latency: m[2].Mean, LatencyCI: HalfWidth(m[2].HalfWidth90),
				}
			},
		}
	}
	return runFixed(points, cfg.Parallelism, cfg.Runner, cfg.Emit)
}

// scaleReplicate generates one workload and runs every variant on it,
// reusing one metrics record and the worker's simulator arena across the
// runs. Each variant's metrics are delivery %, forward %, and mean latency.
func scaleReplicate(cfg ScaleConfig, variants []variant, n, rep int, arena *sim.Arena) ([][]float64, error) {
	seed := scaleSeed(cfg.Seed, n, cfg.Degree, rep)
	rng := rand.New(rand.NewSource(seed))
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: float64(cfg.Degree), Seed: seed}, rng)
	if err != nil {
		return nil, err
	}
	source := rng.Intn(n)
	record := obsv.NewRunRecord()
	out := make([][]float64, len(variants))
	for vi, v := range variants {
		res, err := sim.RunWith(arena, net.G, source, v.make(), sim.Config{
			Hops:    cfg.Hops,
			Seed:    seed + 1,
			Metrics: record,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		out[vi] = []float64{
			100 * res.DeliveryRatio(),
			100 * float64(res.ForwardCount()) / float64(res.N),
			record.Latency.Mean(),
		}
	}
	return out, nil
}

// ScaleWriter returns an Emit hook that writes each scale row to w as it
// arrives: one aligned table per network size, so a sweep prints its small
// sizes while the large ones still run.
func ScaleWriter(w io.Writer) func(ScaleRow) {
	return rowWriter(w, func(r ScaleRow) int { return r.N }, func(r ScaleRow) string {
		return fmt.Sprintf("n=%d (%d replicates)\n  %-16s %16s %16s %18s\n",
			r.N, r.Replicates, "variant", "delivery %", "forward %", "latency (slots)")
	}, scaleLine)
}

// scaleLine renders one row as an aligned line (no leading indent).
func scaleLine(r ScaleRow) string {
	return fmt.Sprintf("%-16s %10.2f %s %10.2f %s %12.2f %s",
		r.Variant, r.Delivery, pm(r.DeliveryCI, 2), r.Forward, pm(r.ForwardCI, 2),
		r.Latency, pm(r.LatencyCI, 2))
}
