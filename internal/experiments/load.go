package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
	"adhocbcast/internal/traffic"
)

// The load sweep is the heavy-traffic workload: instead of one broadcast per
// run, a deterministic Poisson process injects concurrent broadcast sessions
// against the contention-aware MAC (carrier sense, per-node transmit queues,
// overlap collisions), and the swept axis is the offered load. The measured
// curves — throughput, delivery ratio, p50/p99 latency, queue drops — show
// the saturation knee: throughput tracks offered load until the channel
// saturates, then plateaus while latency and drops climb. See
// docs/traffic-model.md for the model and EXPERIMENTS.md for reading the
// committed table.

// LoadConfig controls a saturation (offered-load) sweep.
type LoadConfig struct {
	// N is the network size (default 100) and Degree the target average
	// degree (default 6, the paper's sparse setting).
	N      int
	Degree int
	// Rates lists the swept offered loads in broadcast sessions per slot
	// across the whole network (default 0.02, 0.05, 0.1, 0.2, 0.4).
	Rates []float64
	// Sources is the number of distinct traffic sources (default 8).
	Sources int
	// Horizon is the injection window in slots (default 400); the run itself
	// continues until the event queue drains.
	Horizon float64
	// QueueCap is the per-node transmit queue capacity (default 8,
	// tail-drop).
	QueueCap int
	// Replicates is the fixed per-point replication count (default 5).
	Replicates int
	// Seed is the base workload seed (default 42).
	Seed int64
	// Parallelism bounds the replicates evaluated concurrently within a
	// point (default GOMAXPROCS). Results are deterministic for any value:
	// every replicate derives from (Seed, n, d, rate, rep) alone and metrics
	// fold in replicate order.
	Parallelism int
	// Hops is the local-view depth (default 2).
	Hops int
	// Emit, when non-nil, receives each completed row as soon as its point
	// finishes, in (rate, variant) order (cached rows included).
	Emit func(LoadRow)
	// Runner, when non-nil, intercepts each rate point's computation — the
	// caching hook internal/grid uses, exactly like ScaleConfig.Runner.
	Runner func(point string, compute func() ([]LoadRow, error)) ([]LoadRow, error)
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.N == 0 {
		c.N = 100
	}
	if c.Degree == 0 {
		c.Degree = 6
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	}
	if c.Sources == 0 {
		c.Sources = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 400
	}
	if c.QueueCap == 0 {
		c.QueueCap = 8
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

// LoadRow is one (rate, variant) result of a saturation sweep. Throughput is
// in delivered session-equivalents per slot (see sim.TrafficResult.
// Throughput), Delivery in percent of (session, node) pairs, latencies in
// slots relative to each session's injection, QueueDrops in drops per
// injected session. CI fields are 90% half-widths over the replicates.
type LoadRow struct {
	Rate         float64
	Variant      string
	Replicates   int
	Throughput   float64
	ThroughputCI HalfWidth
	Delivery     float64
	DeliveryCI   HalfWidth
	LatencyP50   float64
	LatencyP50CI HalfWidth
	LatencyP99   float64
	LatencyP99CI HalfWidth
	QueueDrops   float64
	QueueDropsCI HalfWidth
}

// loadVariants are the protocols the sweep saturates: blind flooding as the
// channel-load worst case, the generic framework's first-receipt and
// backoff policies, and the backoff policy with NACK recovery — so the
// recovery layer is exercised under real contention, not just random loss.
func loadVariants() []variant {
	frb := func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }
	return []variant{
		{label: "Flooding", make: protocol.Flooding},
		{label: "Generic-FR", make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
		{label: "Generic-FRB", make: frb},
		{label: "Generic-FRB+NACK", cfg: sim.Config{NACKRecovery: true}, make: frb},
	}
}

// ratePermille converts an offered load to the integer sessions-per-1000-
// slots encoding used in seeds and point labels (floats never enter either).
func ratePermille(rate float64) int {
	return int(math.Round(rate * 1000))
}

// loadSeed derives the deterministic workload seed of one (rate, rep) cell.
// Variants are excluded: every variant of a replicate sees the same network,
// the same traffic plan, and the same seeds (common random numbers).
func loadSeed(base int64, n, d, permille, rep int) int64 {
	return deriveSeed("load", base, n, d, permille, rep)
}

// Load runs the saturation sweep and returns one row per (rate, variant), in
// sweep order. Points run strictly in rate order; within a point, replicates
// run on up to Parallelism workers.
func Load(cfg LoadConfig) ([]LoadRow, error) {
	cfg = cfg.withDefaults()
	variants := loadVariants()
	points := make([]fixedPoint[LoadRow], len(cfg.Rates))
	for k, rate := range cfg.Rates {
		points[k] = fixedPoint[LoadRow]{
			label: fmt.Sprintf("load/rpm=%d/n=%d/d=%d/reps=%d",
				ratePermille(rate), cfg.N, cfg.Degree, cfg.Replicates),
			reps: cfg.Replicates,
			replicate: func(rep int, arena *sim.Arena) ([][]float64, error) {
				return loadReplicate(cfg, variants, rate, rep, arena)
			},
			row: func(vi int, m []stats.Summary) LoadRow {
				return LoadRow{
					Rate:       rate,
					Variant:    variants[vi].label,
					Replicates: cfg.Replicates,
					Throughput: m[0].Mean, ThroughputCI: HalfWidth(m[0].HalfWidth90),
					Delivery: m[1].Mean, DeliveryCI: HalfWidth(m[1].HalfWidth90),
					LatencyP50: m[2].Mean, LatencyP50CI: HalfWidth(m[2].HalfWidth90),
					LatencyP99: m[3].Mean, LatencyP99CI: HalfWidth(m[3].HalfWidth90),
					QueueDrops: m[4].Mean, QueueDropsCI: HalfWidth(m[4].HalfWidth90),
				}
			},
		}
	}
	return runFixed(points, cfg.Parallelism, cfg.Runner, cfg.Emit)
}

// loadReplicate generates one workload (network + traffic plan) and runs
// every variant on it through the contention MAC, reusing the worker's arena.
// Each variant's metrics are throughput, delivery %, p50 and p99 latency, and
// queue drops per session.
func loadReplicate(cfg LoadConfig, variants []variant, rate float64, rep int, arena *sim.Arena) ([][]float64, error) {
	seed := loadSeed(cfg.Seed, cfg.N, cfg.Degree, ratePermille(rate), rep)
	rng := rand.New(rand.NewSource(seed))
	net, err := geo.Generate(geo.Config{N: cfg.N, AvgDegree: float64(cfg.Degree), Seed: seed}, rng)
	if err != nil {
		return nil, err
	}
	// traffic.Config.Rate is per source; the sweep axis is network-wide
	// offered load, the same unit as TrafficResult.Throughput.
	plan, err := traffic.Poisson(traffic.Config{
		N:       cfg.N,
		Sources: cfg.Sources,
		Rate:    rate / float64(cfg.Sources),
		Horizon: cfg.Horizon,
		Seed:    seed + 2,
	})
	if err != nil {
		return nil, err
	}
	sessions := make([]sim.SessionSpec, len(plan.Messages))
	for i, m := range plan.Messages {
		sessions[i] = sim.SessionSpec{Source: m.Source, At: m.At}
	}
	out := make([][]float64, len(variants))
	for vi, v := range variants {
		res, err := sim.RunTrafficWith(arena, net.G, sessions, v.make, sim.Config{
			Hops:         cfg.Hops,
			Seed:         seed + 1,
			CarrierSense: true,
			TxQueueCap:   cfg.QueueCap,
			NACKRecovery: v.cfg.NACKRecovery,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		out[vi] = []float64{
			res.Throughput(),
			100 * res.DeliveryRatio(),
			res.LatencyP50,
			res.LatencyP99,
			float64(res.QueueDrops) / float64(res.Sessions),
		}
	}
	return out, nil
}

// LoadWriter returns an Emit hook that writes each load row to w as it
// arrives: one aligned table per offered load, light loads first, so the
// saturation knee emerges while the heavy loads still run.
func LoadWriter(w io.Writer) func(LoadRow) {
	return rowWriter(w, func(r LoadRow) float64 { return r.Rate }, func(r LoadRow) string {
		return fmt.Sprintf("offered load %.3f sessions/slot (%d replicates)\n  %-18s %16s %15s %14s %14s %14s\n",
			r.Rate, r.Replicates, "variant", "throughput", "delivery %", "p50 (slots)", "p99 (slots)", "qdrops/sess")
	}, loadLine)
}

// FormatLoad renders load rows as LoadWriter writes them.
func FormatLoad(rows []LoadRow) string { return foldRows(rows, LoadWriter) }

// loadLine renders one row as an aligned line (no leading indent).
func loadLine(r LoadRow) string {
	return fmt.Sprintf("%-18s %9.4f %s %9.2f %s %8.1f %s %8.1f %s %8.2f %s",
		r.Variant, r.Throughput, pm(r.ThroughputCI, 4), r.Delivery, pm(r.DeliveryCI, 2),
		r.LatencyP50, pm(r.LatencyP50CI, 1), r.LatencyP99, pm(r.LatencyP99CI, 1),
		r.QueueDrops, pm(r.QueueDropsCI, 2))
}
