package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
	"adhocbcast/internal/view"
)

// paper_fig10 is what `make figures-paper` and `make grid` users pay: one
// Figure 10 sweep, 72 data points of tiny graphs replicated to a confidence
// criterion, where per-run fixed costs dominate.

// deriveSeed derives an independent seed from the run seed, a label and
// integer coordinates. The experiment drivers' own derivation is unexported,
// so a replay sees the same shapes as the driver, not the same draws.
func deriveSeed(base int64, label string, parts ...int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", label, base)
	for _, p := range parts {
		fmt.Fprintf(h, "/%d", p)
	}
	return int64(h.Sum64() >> 1)
}

// figureSizes and figureDegrees are the drivers' defaults, repeated here
// because the replay walks the same (n, d) points itself.
var (
	figureSizes   = []int{20, 30, 40, 50, 60, 70, 80, 90, 100}
	figureDegrees = []int{6, 18}
)

// figurePass is one timed Figure10 call and what its hooks observed.
type figurePass struct {
	fig        experiments.Figure
	wall       time.Duration
	replicates int
	points     int
	unfinished int // points that neither converged nor hit MaxRuns
	maxPerPt   int // replicates of the largest point
	// replicateMS holds, per point, its compute time divided by its
	// replicates: how long a replicate of that (variant, n, d) takes.
	replicateMS []float64
}

// runFigure10 runs Figure10 with counting hooks. The hooks never change the
// measured values: Progress is observational and the Runner always computes.
func runFigure10(rc experiments.RunConfig) (figurePass, error) {
	var (
		mu       sync.Mutex
		done     = map[string]int{}
		finished = map[string]bool{}
		pointMS  = map[string]float64{}
		p        figurePass
	)
	rc.Progress = func(point string, u stats.ProgressUpdate) {
		mu.Lock()
		defer mu.Unlock()
		if !u.Exhausted {
			p.replicates++
			done[point] = u.Done
		}
		if u.Converged || u.Exhausted {
			finished[point] = true
		}
	}
	rc.Runner = func(point string, compute func() (stats.Summary, error)) (stats.Summary, error) {
		start := time.Now()
		s, err := compute()
		ms := float64(time.Since(start)) / 1e6
		mu.Lock()
		pointMS[point] = ms
		mu.Unlock()
		return s, err
	}
	start := time.Now()
	fig, err := experiments.Figure10(rc)
	p.wall = time.Since(start)
	if err != nil {
		return p, err
	}
	p.fig = fig
	p.points = len(done)
	for point, n := range done {
		if n > p.maxPerPt {
			p.maxPerPt = n
		}
		if !finished[point] {
			p.unfinished++
		}
		p.replicateMS = append(p.replicateMS, pointMS[point]/float64(n))
	}
	return p, nil
}

func (sz sizes) figCriterion() stats.ReplicateOptions {
	return stats.ReplicateOptions{MinRuns: sz.FigMinRuns, MaxRuns: sz.FigMaxRuns, RelTol: sz.FigRelTol}
}

// fixedRuns is a criterion that stops at exactly n replicates per point.
func fixedRuns(n int) stats.ReplicateOptions {
	return stats.ReplicateOptions{MinRuns: n, MaxRuns: n, RelTol: 1e-9}
}

func measurePaper(r *run) error {
	// Set-up is a warm-up pass at a fixed replicate count: it sizes the
	// heap and faults in the code the timed pass runs.
	var setups []float64
	for i := 0; i < r.sz.SetupReps; i++ {
		p, err := runFigure10(experiments.RunConfig{Replicate: fixedRuns(r.sz.FigWarmRuns), Seed: deriveSeed(r.seed, "paper.warm", i)})
		if err != nil {
			return err
		}
		setups = append(setups, p.wall.Seconds())
	}
	r.set("setup_s", median(setups))

	var walls, rates, replicateMS []float64
	replicates := 0
	var slowest time.Duration
	start := time.Now()
	for u := 0; r.more(start, u, 1, slowest); u++ {
		// Each pass draws its own workloads: a repeated seed would be served
		// by the drivers' process-wide workload cache.
		var p figurePass
		err := r.unit(func() (err error) {
			p, err = runFigure10(experiments.RunConfig{Replicate: r.sz.figCriterion(), Seed: r.seed + int64(u)})
			return err
		})
		if err != nil {
			return err
		}
		for i := 0; i < p.points; i++ {
			r.op(i >= p.unfinished)
		}
		if u == 0 {
			r.golden("paper_fig10.txt", []byte(experiments.Format(p.fig)))
		}
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(p.replicates)/p.wall.Seconds())
		replicateMS = append(replicateMS, p.replicateMS...)
		replicates += p.replicates
		if p.wall > slowest {
			slowest = p.wall
		}
	}
	r.set("wall_s", median(walls))
	r.set("ops_per_s", median(rates))
	r.set("op_p50_ms", median(replicateMS))
	r.setExtra("replicates", float64(replicates), "count")
	r.setExtra("passes", float64(len(walls)), "count")
	r.setExtra("point_samples", float64(len(replicateMS)), "count")
	return nil
}

// figureVariants are Figure 10's four timing options.
var figureVariants = []protocol.Timing{
	protocol.TimingStatic, protocol.TimingFirstReceipt,
	protocol.TimingBackoffRandom, protocol.TimingBackoffDegree,
}

func replayPaper(r *run) error {
	from := r.tr.mark()
	var (
		u        unitCosts
		simAgg   simTotals
		geoAgg   geoTotals
		lastNets []*geo.Network
		lastSrc  []int
		folds    int
		op       int
		// pipeline is the time inside the layers' calls, without the
		// allocation counting between them.
		pipeline time.Duration
	)
	for _, d := range figureDegrees {
		for _, n := range figureSizes {
			accs := make([]stats.Accumulator, len(figureVariants))
			var net *geo.Network
			var source int
			for rep := 0; rep < r.sz.FigReplayReps; rep++ {
				op++
				seed := deriveSeed(r.seed, "paper.replay", n, d, rep)
				id := r.tr.begin("replicate", op, false)
				rng := rand.New(rand.NewSource(seed))
				var err error
				net, err = geoAgg.generate(r, op, geo.Config{N: n, AvgDegree: float64(d), Seed: seed}, rng)
				if err != nil {
					return err
				}
				source = rng.Intn(n)
				start := time.Now()
				r.span("view.BasePriorities", op, func() { view.BasePriorities(net.G, view.MetricID) })
				pipeline += time.Since(start)
				for vi, timing := range figureVariants {
					// A nil arena, as the driver's sim.Run passes: every run
					// pays its own state and view construction.
					res, err := simAgg.run(r, op, nil, net, source, protocol.Generic(timing), sim.Config{Hops: 2, Metric: view.MetricID, Seed: seed + 1})
					if err != nil {
						return err
					}
					start := time.Now()
					r.span("stats.fold", op, func() {
						accs[vi].Add(float64(res.ForwardCount()))
						accs[vi].Summary()
					})
					pipeline += time.Since(start)
					folds++
				}
				r.tr.end(id)
			}
			u.probe(r, net, 1)
			lastNets, lastSrc = append(lastNets, net), append(lastSrc, source)
		}
	}
	geoAgg.emit(r)
	u.emit(r)
	simAgg.emit(r)
	pipeline += geoAgg.busy + simAgg.busy

	// Metrics hook cost: the same runs with and without a run record.
	record := obsv.NewRunRecord()
	var plain, metered time.Duration
	for i, net := range lastNets {
		for _, timing := range figureVariants {
			for _, rec := range []*obsv.RunRecord{nil, record} {
				cfg := sim.Config{Hops: 2, Metric: view.MetricID, Seed: int64(i + 1), Metrics: rec}
				d := r.probe("sim.RunWith/metrics="+fmt.Sprint(rec != nil), func() {
					if _, err := sim.RunWith(nil, net.G, lastSrc[i], protocol.Generic(timing), cfg); err != nil {
						r.check(false, "metrics probe: %v", err)
					}
				})
				if rec == nil {
					plain += d
				} else {
					metered += d
				}
			}
		}
	}
	r.set("sim.metrics_overhead_ratio", float64(metered)/float64(plain))

	// Accumulator unit cost, in one span: a span per sample would cost more
	// than the sample.
	samples := 100 * r.sz.ProbeIters
	var acc stats.Accumulator
	d := r.probe("stats.Accumulator", func() {
		for i := 0; i < samples; i++ {
			acc.Add(float64(i % 17))
			acc.Summary()
		}
	})
	r.set("stats.add_ns_per_sample", float64(d)/float64(samples))

	// The driver itself, on the same shapes.
	var pass figurePass
	var err error
	r.span("experiments.Figure10", 0, func() {
		pass, err = runFigure10(experiments.RunConfig{Replicate: r.sz.figCriterion(), Seed: r.seed})
	})
	if err != nil {
		return err
	}
	for i := 0; i < pass.points; i++ {
		r.op(i >= pass.unfinished)
	}
	r.set("experiments.figure_s", pass.wall.Seconds())
	r.set("experiments.points", float64(pass.points))
	r.set("experiments.max_replicates_per_point", float64(pass.maxPerPt))
	r.set("stats.replicates", float64(pass.replicates))
	perReplicate := pass.wall.Seconds() / float64(pass.replicates)
	perReplayRun := pipeline.Seconds() / float64(folds)
	r.set("experiments.driver_overhead_ratio", perReplicate/perReplayRun)

	serial, err := figureWall(r, "point-serial", experiments.RunConfig{Replicate: fixedRuns(r.sz.FigWarmRuns), Seed: r.seed + 1, Parallelism: 1})
	if err != nil {
		return err
	}
	parallel, err := figureWall(r, "point-parallel", experiments.RunConfig{Replicate: fixedRuns(r.sz.FigWarmRuns), Seed: r.seed + 1})
	if err != nil {
		return err
	}
	r.set("experiments.point_parallel_speedup", serial/parallel)

	// The n=60 d=6 64-replicate point the roadmap's no-speedup finding is on.
	onePoint := experiments.RunConfig{Sizes: []int{60}, Degrees: []int{6}, Replicate: fixedRuns(64), Seed: 12, Parallelism: 1}
	var one, many []float64
	for i := 0; i < 5; i++ {
		rc := onePoint
		s, err := figureWall(r, "replicate-serial", rc)
		if err != nil {
			return err
		}
		rc.ReplicateParallelism = runtime.GOMAXPROCS(0)
		p, err := figureWall(r, "replicate-parallel", rc)
		if err != nil {
			return err
		}
		one, many = append(one, s), append(many, p)
	}
	r.set("experiments.replicate_parallel_speedup", median(one)/median(many))

	self := r.tr.selfTime(from)
	r.setExtra("replay.geo_self_s", self["geo.Generate"].Seconds(), "s")
	r.setExtra("replay.sim_self_s", self["sim.RunWith"].Seconds(), "s")
	r.setExtra("replay.stats_self_s", self["stats.fold"].Seconds(), "s")
	r.setExtra("replay.replicate_self_s", self["replicate"].Seconds(), "s")
	return nil
}

// figureWall times one Figure10 call under a probe span and returns seconds.
func figureWall(r *run, label string, rc experiments.RunConfig) (float64, error) {
	var err error
	d := r.probe("experiments.Figure10/"+label, func() { _, err = experiments.Figure10(rc) })
	return d.Seconds(), err
}
