package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	rt "adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// live_fleet and live_fleet_journal are the live path nothing else measures:
// envelope JSON codec, UDP wire, handler loop, runtime.Core — and, with the
// journal, one write + fsync per envelope and forward-before-send. Twelve
// processes share the machine's cores with the client, so CPU freed in one
// node shortens the queue for all, and latency rises before waves/s stops
// rising.

// fleetTopologySeed fixes the fleet's topology. At n=12 the forward-set size,
// and with it the cost of a wave, differs by about 4% either way between
// geo.Generate draws — as much as the run-to-run noise the bounds have to
// resolve — so the topology is one fixed draw and --seed drives the order in
// which nodes take their turn as source.
const fleetTopologySeed = 12

func fleetTopology(sz sizes) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(fleetTopologySeed))
	net, err := geo.Generate(geo.Config{N: sz.FleetNodes, AvgDegree: sz.FleetDegree, Seed: fleetTopologySeed}, rng)
	if err != nil {
		return nil, err
	}
	return net.G, nil
}

// epoch is one fresh fleet driven through a closed loop of waves. Fresh
// fleets keep the nodes' read_ok lists, which grow by one id per wave, short.
type epoch struct {
	times     fleetTimes
	loop      time.Duration
	latencyMS []float64
	rounds    int
	dir       string // journal directory, "" without journal
	fleet     *fleet // still running: the caller stops it
}

// runEpoch starts a fleet and runs waves through it. The caller stops the
// fleet, after whatever else it wants from the running nodes.
func runEpoch(r *run, bin string, g *graph.Graph, journal bool, e, waves int) (*epoch, error) {
	ep := &epoch{}
	if journal {
		dir, err := r.tempDir("journal")
		if err != nil {
			return nil, err
		}
		ep.dir = dir
	}
	f, times, err := startFleet(r, bin, g, ep.dir)
	if err != nil {
		return nil, err
	}
	ep.times = times
	order := rand.New(rand.NewSource(deriveSeed(r.seed, "fleet.sources", e))).Perm(g.N())
	start := time.Now()
	for w := 0; w < waves; w++ {
		msg := int64(e)*1_000_000 + int64(w) + 1
		lat, rounds, err := f.wave(order[w%len(order)], msg, e*waves+w+1)
		if errors.Is(err, errWaveDeadline) {
			r.op(false)
			continue
		}
		if err != nil {
			f.stop()
			return nil, err
		}
		r.op(true)
		ep.latencyMS = append(ep.latencyMS, float64(lat)/1e6)
		ep.rounds += rounds
	}
	ep.loop = time.Since(start)
	ep.fleet = f
	return ep, nil
}

func measureFleet(journal bool) func(*run) error {
	return func(r *run) error {
		bin, err := nodeBinary(r)
		if err != nil {
			return err
		}
		g, err := fleetTopology(r.sz)
		if err != nil {
			return err
		}
		var setups, loops, rates, latencies, peaks []float64
		var slowest time.Duration
		start := time.Now()
		for e := 0; r.more(start, e, r.sz.FleetEpochs, slowest); e++ {
			begun := time.Now()
			ep, err := runEpoch(r, bin, g, journal, e, r.sz.FleetWaves)
			if err != nil {
				return err
			}
			ep.fleet.stop() // reaping the nodes also yields their peak memory
			if d := time.Since(begun); d > slowest {
				slowest = d
			}
			setups = append(setups, (ep.times.spawn + ep.times.handshake).Seconds())
			loops = append(loops, ep.loop.Seconds())
			rates = append(rates, float64(r.sz.FleetWaves)/ep.loop.Seconds())
			latencies = append(latencies, ep.latencyMS...)
			peaks = append(peaks, ep.fleet.peakRSSMB)
			if journal {
				dups, _, _, err := scanJournals(ep.dir, g.N())
				if err != nil {
					return err
				}
				r.check(dups == 0, "epoch %d: %d duplicated forward records in the journals", e, dups)
			}
		}
		r.set("setup_s", median(setups))
		r.set("wall_s", median(loops))
		r.set("ops_per_s", median(rates))
		r.set("op_p50_ms", median(latencies))
		// The largest node of an epoch (twelve run beside each other), and the
		// median of that over the epochs.
		r.set("peak_rss_mb", median(peaks))
		r.setExtra("wave_samples", float64(len(latencies)), "count")
		r.setExtra("epochs", float64(len(loops)), "count")
		r.setExtra("wave_p99_ms", quantile(latencies, 0.99), "ms")
		return nil
	}
}

func replayFleet(journal bool) func(*run) error {
	return func(r *run) error {
		bin, err := nodeBinary(r)
		if err != nil {
			return err
		}
		g, err := fleetTopology(r.sz)
		if err != nil {
			return err
		}
		from := r.tr.mark()
		ep, err := runEpoch(r, bin, g, journal, 0, r.sz.FleetWaves)
		if err != nil {
			return err
		}
		f := ep.fleet
		defer f.stop()
		waves := len(ep.latencyMS)
		if waves == 0 {
			return errors.New("no wave was confirmed")
		}
		self := r.tr.selfTime(from)
		r.set("bcastnode.spawn_ms", float64(ep.times.spawn)/1e6)
		r.set("bcastnode.handshake_ms", float64(ep.times.handshake)/1e6)
		r.set("bcastnode.broadcast_rpc_p50_us", spanP50Micros(r.tr, from, "rpc.broadcast"))
		r.set("bcastnode.poll_rounds_per_wave", float64(ep.rounds)/float64(waves))
		r.set("bcastnode.wave_p99_ms", quantile(ep.latencyMS, 0.99))
		r.setExtra("replay.wave_p50_ms", median(ep.latencyMS), "ms")
		r.setExtra("replay.waves_per_s", float64(r.sz.FleetWaves)/ep.loop.Seconds(), "1/s")
		r.setExtra("replay.rpc_broadcast_self_s", self["rpc.broadcast"].Seconds(), "s")
		r.setExtra("replay.poll_self_s", self["poll.round"].Seconds(), "s")

		// One idle node's request round trip over UDP.
		var rtts []float64
		for i := 0; i < r.sz.ProbeIters/4+1; i++ {
			start := time.Now()
			id := r.tr.begin("rpc.read", 0, true)
			_, err := f.rpc(0, body{Type: "read"})
			r.tr.end(id)
			if err != nil {
				return err
			}
			rtts = append(rtts, float64(time.Since(start))/1e3)
		}
		r.set("bcastnode.udp_rtt_p50_us", median(rtts))

		drops := int64(0)
		for i := range f.nodes {
			reply, err := f.rpc(i, body{Type: "status"})
			if err != nil {
				return err
			}
			drops += reply.FrameDrops
		}
		r.set("bcastnode.frame_drops", float64(drops))

		if journal {
			replay, err := f.restart(0)
			if err != nil {
				return err
			}
			f.stop() // every journal is complete once its writer is gone
			dups, records, bytes, err := scanJournals(ep.dir, g.N())
			if err != nil {
				return err
			}
			r.check(dups == 0, "%d duplicated forward records in the journals", dups)
			r.set("bcastnode.journal_replay_ms", float64(replay)/1e6)
			r.set("bcastnode.journal_records_per_wave", float64(records)/float64(r.sz.FleetWaves))
			r.set("bcastnode.journal_bytes_per_wave", float64(bytes)/float64(r.sz.FleetWaves))
			r.set("bcastnode.duplicate_forwards", float64(dups))
			// The fsync a journaling node pays per envelope, measured where
			// its journal lives; it should explain the p50 gap to live_fleet.
			us, err := appendSyncMicros(r, ep.dir, r.sz.ProbeIters/10+1)
			if err != nil {
				return err
			}
			r.set("obsv.append_sync_us", us)
			return nil
		}

		// The stream wires and the in-process core are independent of the
		// journal, so the plain fleet's replay measures them.
		for _, p := range []struct{ framing, metric string }{
			{"line", "bcastnode.stdio_rtt_p50_us"},
			{"length", "bcastnode.stdio_length_rtt_p50_us"},
		} {
			var rtts []float64
			r.probe("bcastnode.stdio/"+p.framing, func() { rtts, err = stdioRTT(r.ctx, bin, p.framing, r.sz.ProbeIters/4+1) })
			if err != nil {
				return err
			}
			r.set(p.metric, median(rtts))
		}
		return probeRuntime(r)
	}
}

// spanP50Micros returns the median duration of the spans of one name
// recorded since mark.
func spanP50Micros(t *tracer, from int, name string) float64 {
	var us []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return median(us)
}

// scanJournals reads the journals of nodes n0..n(n-1) in dir and returns the
// duplicated forward records (a message forwarded twice by one node — the
// write-ahead rule forbids it), and the total records and bytes.
func scanJournals(dir string, n int) (dups, records int, bytes int64, err error) {
	for i := 0; i < n; i++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("n%d.journal", i)))
		if err != nil {
			return 0, 0, 0, err
		}
		seen := make(map[int64]bool)
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			var rec struct {
				Op  string `json:"op"`
				Msg int64  `json:"msg"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				break // a torn final line: the node was killed mid-append
			}
			records++
			bytes += int64(len(sc.Bytes())) + 1
			if rec.Op != "forward" {
				continue
			}
			if seen[rec.Msg] {
				dups++
			}
			seen[rec.Msg] = true
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return 0, 0, 0, err
		}
	}
	return dups, records, bytes, nil
}

// nullTransport is a runtime.Transport that does nothing: the stub the core
// probe drives a Core against.
type nullTransport struct{}

func (nullTransport) Broadcast(sim.Packet)          {}
func (nullTransport) Unicast(int, sim.Packet, int)  {}
func (nullTransport) NACK(int, int)                 {}
func (nullTransport) AfterTimer(float64, func())    {}
func (nullTransport) AfterRecovery(float64, func()) {}
func (nullTransport) Down() bool                    { return false }
func (nullTransport) Now() float64                  { return 0 }
func (nullTransport) NoteDeliver(bool, float64)     {}
func (nullTransport) NoteSource()                   {}
func (nullTransport) NoteNACK()                     {}
func (nullTransport) NoteNonForward()               {}

var _ rt.Transport = nullTransport{}

// probeRuntime measures the in-process live executor: a wave through a
// goroutine cluster against the seed-matched simulated one, and the cost of
// one packet through a Core. The cluster has no end-to-end row yet; it is
// reported for the roadmap's one-node-core refactor.
func probeRuntime(r *run) error {
	const (
		n, degree = 100, 6
		timeScale = 200 * time.Microsecond
	)
	seed := deriveSeed(r.seed, "runtime.probe")
	rng := rand.New(rand.NewSource(seed))
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: degree, Seed: seed}, rng)
	if err != nil {
		return err
	}
	fr := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	cl, err := rt.New(net.G, rt.Config{Protocol: fr, Hops: 2, TimeScale: timeScale, Seed: seed})
	if err != nil {
		return err
	}
	wavesN := r.sz.ProbeIters/100 + 3
	var liveMS, simMS []float64
	for w := 0; w < wavesN; w++ {
		source := rng.Intn(n)
		var res sim.Result
		d := r.probe("runtime.Cluster.Broadcast", func() { res, err = cl.Broadcast(source, nil) })
		if err != nil {
			return err
		}
		r.op(res.FullDelivery())
		liveMS = append(liveMS, float64(d)/1e6)
		ref, err := sim.Run(net.G, source, fr(), sim.Config{Hops: 2, Seed: seed})
		if err != nil {
			return err
		}
		simMS = append(simMS, ref.Finish*float64(timeScale)/1e6)
	}
	r.set("runtime.cluster_wave_ms", median(liveMS))
	// How much longer the live wave takes than the simulated schedule says
	// it should at this time scale: goroutine and timer overhead.
	r.set("runtime.cluster_overhead_ratio", median(liveMS)/median(simMS))

	base := view.BasePriorities(net.G, view.MetricID)
	views := make([]*view.Local, n)
	from := make([]int, n)
	for v := 0; v < n; v++ {
		views[v] = view.NewLocal(net.G, v, 2, base)
		from[v] = net.G.Neighbors(v)[0]
	}
	cfg := rt.CoreConfig{N: n, PiggybackDepth: 2, BackoffWindow: 8, TransmitDelay: 1}
	packets := 0
	d := r.probe("runtime.Core.HandlePacket", func() {
		for i := 0; i < r.sz.ProbeIters/n+1; i++ {
			for v := 0; v < n; v++ {
				views[v].ResetStatus()
				c := rt.NewCore(v, fr(), views[v], net.G, cfg, nullTransport{}, seed)
				c.Init()
				c.HandlePacket(from[v], sim.Packet{Source: from[v], Trail: []sim.TrailEntry{{Node: from[v]}}}, 1)
				packets++
			}
		}
	})
	r.set("runtime.core_ns_per_packet", float64(d)/float64(packets))
	return nil
}
