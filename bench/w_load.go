package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/traffic"
)

// load_knee is the simulator used differently: RunTraffic with hundreds of
// concurrent sessions, per-session view clones, carrier-sense MAC queues and
// NACK retries, swept across the saturation knee. A single-broadcast fast
// path that makes per-session state heavier shows up here as a loss.

// loadSweep runs one experiments.Load sweep, timing each rate point through
// the Runner hook (which always computes, so results are unchanged).
func loadSweep(sz sizes, reps int, seed int64) (rows []experiments.LoadRow, wall time.Duration, pointMS []float64, err error) {
	var mu sync.Mutex
	cfg := experiments.LoadConfig{
		Rates: sz.LoadRates, Replicates: reps, Seed: seed,
		Runner: func(point string, compute func() ([]experiments.LoadRow, error)) ([]experiments.LoadRow, error) {
			start := time.Now()
			rows, err := compute()
			mu.Lock()
			pointMS = append(pointMS, float64(time.Since(start))/1e6)
			mu.Unlock()
			return rows, err
		},
	}
	start := time.Now()
	rows, err = experiments.Load(cfg)
	return rows, time.Since(start), pointMS, err
}

// scoreLoadRows counts one operation per row: a row fails on a wrong
// replicate count or a non-finite statistic.
func scoreLoadRows(r *run, rows []experiments.LoadRow, reps int) {
	for _, row := range rows {
		ok := row.Replicates == reps
		for _, x := range []float64{row.Throughput, row.Delivery, row.LatencyP50, row.LatencyP99, row.QueueDrops} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				ok = false
			}
		}
		r.op(ok)
	}
}

func measureLoad(r *run) error {
	var setups []float64
	for i := 0; i < r.sz.SetupReps; i++ {
		_, wall, _, err := loadSweep(r.sz, r.sz.LoadWarmReps, deriveSeed(r.seed, "load.warm", i))
		if err != nil {
			return err
		}
		setups = append(setups, wall.Seconds())
	}
	r.set("setup_s", median(setups))

	var walls, rates, replicateMS []float64
	var slowest time.Duration
	start := time.Now()
	for u := 0; r.more(start, u, 1, slowest); u++ {
		var (
			rows []experiments.LoadRow
			wall time.Duration
			ms   []float64
		)
		err := r.unit(func() (err error) {
			rows, wall, ms, err = loadSweep(r.sz, r.sz.LoadReps, r.seed+int64(u))
			return err
		})
		if err != nil {
			return err
		}
		r.check(len(rows) == 4*len(r.sz.LoadRates), "load sweep returned %d rows, want %d", len(rows), 4*len(r.sz.LoadRates))
		scoreLoadRows(r, rows, r.sz.LoadReps)
		if u == 0 {
			r.golden("load_knee.txt", []byte(experiments.FormatLoad(rows)))
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(len(r.sz.LoadRates)*r.sz.LoadReps)/wall.Seconds())
		for _, x := range ms {
			replicateMS = append(replicateMS, x/float64(r.sz.LoadReps))
		}
		if wall > slowest {
			slowest = wall
		}
	}
	replicates := len(walls) * len(r.sz.LoadRates) * r.sz.LoadReps
	r.set("wall_s", median(walls))
	r.set("ops_per_s", median(rates))
	r.set("op_p50_ms", median(replicateMS))
	r.setExtra("replicates", float64(replicates), "count")
	r.setExtra("sweeps", float64(len(walls)), "count")
	return nil
}

func replayLoad(r *run) error {
	// The sweep's defaults (experiments.LoadConfig): what Load builds.
	const (
		n, degree, sources = 100, 6, 8
		horizon            = 400.0
		queueCap           = 8
	)
	variants := []struct {
		make func() sim.Protocol
		nack bool
	}{
		{make: protocol.Flooding},
		{make: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }},
		{make: func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }},
		{make: func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }, nack: true},
	}
	var (
		geoAgg                                 geoTotals
		u                                      unitCosts
		planTime, runTime                      time.Duration
		planned, sessions, delivered, runs     int
		deferrals, queueDrops, collided, nacks int
		objects                                uint64
		net                                    *geo.Network
		op                                     int
	)
	arena := sim.NewArena()
	for ri, rate := range r.sz.LoadRates {
		for rep := 0; rep < r.sz.LoadReplayReps; rep++ {
			op++
			seed := deriveSeed(r.seed, "load.replay", ri, rep)
			id := r.tr.begin("replicate", op, false)
			rng := rand.New(rand.NewSource(seed))
			var err error
			net, err = geoAgg.generate(r, op, geo.Config{N: n, AvgDegree: degree, Seed: seed}, rng)
			if err != nil {
				return err
			}
			var plan *traffic.Plan
			start := time.Now()
			r.span("traffic.Poisson", op, func() {
				plan, err = traffic.Poisson(traffic.Config{N: n, Sources: sources, Rate: rate / sources, Horizon: horizon, Seed: seed + 2})
			})
			planTime += time.Since(start)
			if err != nil {
				return err
			}
			planned += plan.Sessions()
			specs := make([]sim.SessionSpec, len(plan.Messages))
			for i, m := range plan.Messages {
				specs[i] = sim.SessionSpec{Source: m.Source, At: m.At}
			}
			for _, v := range variants {
				cfg := sim.Config{Hops: 2, Seed: seed + 1, CarrierSense: true, TxQueueCap: queueCap, NACKRecovery: v.nack}
				var res sim.TrafficResult
				var d time.Duration
				objs, _ := allocs(func() {
					start := time.Now()
					r.span("sim.RunTrafficWith", op, func() { res, err = sim.RunTrafficWith(arena, net.G, specs, v.make, cfg) })
					d = time.Since(start)
				})
				if err != nil {
					return err
				}
				r.op(res.Sessions == len(specs))
				runs++
				runTime += d
				objects += objs
				sessions += res.Sessions
				delivered += res.Delivered
				deferrals += res.MACDeferrals
				queueDrops += res.QueueDrops
				collided += res.Collided
				nacks += res.NACKs
			}
			r.tr.end(id)
		}
	}
	geoAgg.emit(r)
	u.probe(r, net, 1)
	u.emit(r)
	r.set("traffic.plan_s", planTime.Seconds())
	r.set("traffic.sessions", float64(planned))
	r.set("sim.traffic_run_s", runTime.Seconds())
	r.set("sim.traffic_sessions", float64(sessions))
	r.set("sim.traffic_ns_per_delivery", float64(runTime)/float64(delivered))
	r.set("sim.traffic_allocs_per_session", float64(objects)/float64(sessions))
	r.set("sim.mac_deferrals", float64(deferrals))
	r.set("sim.queue_drops", float64(queueDrops))
	r.set("sim.collided", float64(collided))
	r.set("sim.nacks", float64(nacks))

	// The driver itself, one timed sweep.
	var rows []experiments.LoadRow
	var wall time.Duration
	var err error
	r.span("experiments.Load", 0, func() { rows, wall, _, err = loadSweep(r.sz, r.sz.LoadReps, r.seed) })
	if err != nil {
		return err
	}
	scoreLoadRows(r, rows, r.sz.LoadReps)
	r.set("experiments.load_s", wall.Seconds())
	return nil
}
