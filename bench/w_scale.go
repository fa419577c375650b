package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"time"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// scale_200k is one huge graph, beyond the paper's n <= 100: coverage
// evaluation, the event loop, lazy view construction and memory dominate,
// and stats, experiments and grid do nothing. The first broadcast on a fresh
// arena is cold (it builds every view); the following ones are warm.

// scaleConfig is what experiments.Scale passes for a Generic-FR broadcast.
func scaleConfig(i int) sim.Config { return sim.Config{Hops: 2, Seed: int64(i + 1)} }

// scaleCounts are the simulated statistics of one broadcast that a perf-only
// change must leave identical.
type scaleCounts struct {
	Source, Delivered, Forward, Receipts, Copies int
}

func measureScale(r *run) error {
	cfg := geo.Config{N: r.sz.ScaleN, AvgDegree: float64(r.sz.ScaleDegree), Seed: r.seed}
	var (
		setups []float64
		net    *geo.Network
		rng    *rand.Rand
	)
	for i := 0; i < r.sz.SetupReps; i++ {
		start := time.Now()
		rng = rand.New(rand.NewSource(r.seed))
		var err error
		if net, err = geo.Generate(cfg, rng); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))

	var walls, rates, colds, warms []float64
	var counts []scaleCounts
	var slowest time.Duration
	start := time.Now()
	for u := 0; r.more(start, u, 1, slowest); u++ {
		var d time.Duration
		err := r.unit(func() error {
			arena := sim.NewArena() // fresh arena: the unit's first broadcast is cold
			begun := time.Now()
			for i := 0; i <= r.sz.ScaleWarm; i++ {
				source := rng.Intn(r.sz.ScaleN)
				t := time.Now()
				res, err := sim.RunWith(arena, net.G, source, protocol.Generic(protocol.TimingFirstReceipt), scaleConfig(i))
				if err != nil {
					return err
				}
				d := time.Since(t).Seconds()
				r.op(res.FullDelivery())
				if i == 0 {
					colds = append(colds, d)
				} else {
					warms = append(warms, d)
				}
				if u == 0 {
					counts = append(counts, scaleCounts{source, res.Delivered, res.ForwardCount(), res.Receipts, res.Copies})
				}
			}
			d = time.Since(begun)
			return nil
		})
		if err != nil {
			return err
		}
		walls = append(walls, d.Seconds())
		rates = append(rates, float64(1+r.sz.ScaleWarm)/d.Seconds())
		if d > slowest {
			slowest = d
		}
	}
	golden, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return err
	}
	r.golden("scale_200k.json", append(golden, '\n'))

	r.set("wall_s", median(walls))
	r.set("ops_per_s", median(rates))
	r.set("op_p50_ms", 1000*median(warms))
	r.setExtra("cold_broadcast_s", median(colds), "s")
	r.setExtra("warm_broadcast_s", median(warms), "s")
	r.setExtra("warm_samples", float64(len(warms)), "count")
	return nil
}

func replayScale(r *run) error {
	var geoAgg geoTotals
	rng := rand.New(rand.NewSource(r.seed))
	net, err := geoAgg.generate(r, 0, geo.Config{N: r.sz.ScaleN, AvgDegree: float64(r.sz.ScaleDegree), Seed: r.seed}, rng)
	if err != nil {
		return err
	}
	geoAgg.emit(r)

	var u unitCosts
	u.probe(r, net, r.sz.ScaleStride)
	u.emit(r)
	runtime.GC() // the probe's views are garbage now; keep them out of the runs' heap

	var simAgg simTotals
	arena := sim.NewArena()
	fr := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	timed := func(op int, cfg sim.Config) (time.Duration, error) {
		start := time.Now()
		_, err := simAgg.run(r, op, arena, net, rng.Intn(r.sz.ScaleN), fr(), cfg)
		return time.Since(start), err
	}
	cold, err := timed(1, scaleConfig(0))
	if err != nil {
		return err
	}
	warm, err := timed(2, scaleConfig(1))
	if err != nil {
		return err
	}
	cfg := scaleConfig(2)
	cfg.Workers = runtime.GOMAXPROCS(0)
	sharded, err := timed(3, cfg)
	if err != nil {
		return err
	}
	simAgg.emit(r)
	// Cold minus warm is the lazy view build; view.build_s above measures
	// the same work from outside and should agree with it.
	r.set("sim.cold_minus_warm_s", (cold - warm).Seconds())
	r.set("sim.workers_speedup", float64(warm)/float64(sharded))
	r.setExtra("replay.cold_broadcast_s", cold.Seconds(), "s")
	r.setExtra("replay.warm_broadcast_s", warm.Seconds(), "s")
	return nil
}
