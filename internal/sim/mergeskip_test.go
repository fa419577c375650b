package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// mergeOutcome is everything a run shows of itself: its result, its trace
// in obsv/v1 JSONL bytes, and its run record.
type mergeOutcome struct {
	res   any
	trace []byte
	rec   *obsv.RunRecord
}

// runObserved runs one single broadcast from source (sessions nil) or one
// traffic run on a with a recorder and a run record attached.
func runObserved(t testing.TB, a *sim.Arena, g *graph.Graph, source int, sessions []sim.SessionSpec,
	mk func() sim.Protocol, cfg sim.Config) mergeOutcome {
	t.Helper()
	rec := &sim.Recorder{}
	cfg.Observer, cfg.Metrics = rec, obsv.NewRunRecord()
	var res any
	var err error
	if sessions != nil {
		res, err = sim.RunTrafficWith(a, g, sessions, mk, cfg)
	} else {
		res, err = sim.RunWith(a, g, source, mk(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := obsv.NewWriter(&buf)
	events := rec.Events()
	for i := range events {
		if err := w.Write(obsv.Record{Kind: obsv.KindTrace, Event: &events[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return mergeOutcome{res, buf.Bytes(), cfg.Metrics}
}

// diffOutcomes reports how got differs from want, or "" when it does not.
func diffOutcomes(got, want mergeOutcome) string {
	switch {
	case !reflect.DeepEqual(got.res, want.res):
		return "result"
	case !bytes.Equal(got.trace, want.trace):
		return "trace bytes"
	case !reflect.DeepEqual(got.rec, want.rec):
		return "run record"
	}
	return ""
}

// TestMergeSkipInvisible pins that the merges the executor skips — into the
// views of decided nodes and of nodes whose settled bit decides them — are
// merges no one reads: for every registered protocol, on shared, per-node and
// beaconed views, single runs at the production sharding threshold and with
// every batch sharded, and traffic runs over the contention MAC with NACK
// recovery and with loss plus a fault plan, each run equals the same run with
// every copy merged (MergeEverywhere) in its Result, its trace bytes and its
// run record. Every pair runs on an arena a Generic-Static run has just given
// the generic condition's settled verdicts, so the engines that take them
// skip at settled nodes too.
func TestMergeSkipInvisible(t *testing.T) {
	g := generateSettle(t, 60, 8, 3)
	arena := sim.NewArena()
	settle := func() {
		if _, err := sim.RunWith(arena, g, 0, protocol.Generic(protocol.TimingStatic), sim.Config{Hops: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range runScenarios(t, g) {
		t.Run(sc.name, func(t *testing.T) {
			if sc.shard {
				sim.ShardEveryBatch(t)
			}
			for _, name := range protocol.Names() {
				mk, _ := protocol.ByName(name)
				t.Run(name, func(t *testing.T) {
					settle()
					got := runObserved(t, arena, g, 7, sc.sessions, mk, sc.cfg)
					settle()
					sim.MergeEverywhere(t)
					want := runObserved(t, arena, g, 7, sc.sessions, mk, sc.cfg)
					if d := diffOutcomes(got, want); d != "" {
						t.Errorf("skipping merges changed the %s", d)
					}
				})
			}
		})
	}
}

// runScenario is one way of running every protocol over a graph: its
// configuration, whether every batch is sharded, and the traffic sessions
// (nil for a single broadcast from node 7).
type runScenario struct {
	name     string
	cfg      sim.Config
	shard    bool
	sessions []sim.SessionSpec
}

// runScenarios lists the runs the executor's skips must not show in over g:
// shared, per-node and beaconed views, single runs at the production
// sharding threshold and with every batch sharded, and traffic runs over the
// contention MAC with NACK recovery and with loss plus a crash, churn and
// link fault plan.
func runScenarios(t *testing.T, g *graph.Graph) []runScenario {
	t.Helper()
	vs, err := hello.Exchange(g, hello.Config{Rounds: 2, LossRate: 0.3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(g, fault.Params{CrashFraction: 0.15, ChurnFraction: 0.10, LinkFraction: 0.10, Protect: []int{0}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	beaconed := sim.BeaconedViews{Hello: hello.Dynamic{Interval: 0.5, Expiry: 0.7, LossRate: 0.5, Seed: 3}}
	sessions := []sim.SessionSpec{{Source: 3}, {Source: 17, At: 0.5}, {Source: 3, At: 2}, {Source: 41, At: 2}}
	return []runScenario{
		{name: "shared", cfg: sim.Config{Hops: 2, Seed: 1}},
		{name: "shared-sharded", cfg: sim.Config{Hops: 2, Workers: 4, Seed: 1}, shard: true},
		{name: "node-views", cfg: sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs}, Seed: 4}},
		{name: "node-views-sharded", cfg: sim.Config{Hops: 2, Views: sim.PerNodeViews{Views: vs}, Workers: 4, Seed: 4}, shard: true},
		{name: "beaconed", cfg: sim.Config{Hops: 2, Views: beaconed, Seed: 11}},
		{name: "beaconed-sharded", cfg: sim.Config{Hops: 2, Views: beaconed, Workers: 4, Seed: 11}, shard: true},
		{name: "traffic-cs-nack", cfg: sim.Config{Hops: 2, CarrierSense: true, NACKRecovery: true, Seed: 10}, sessions: sessions},
		{name: "traffic-beaconed-cs-nack", cfg: sim.Config{Hops: 2, Views: beaconed, CarrierSense: true, NACKRecovery: true, Seed: 10}, sessions: sessions},
		{name: "traffic-loss-faults", cfg: sim.Config{Hops: 2, LossRate: 0.3, NACKRecovery: true, Faults: plan, Seed: 12}, sessions: sessions},
	}
}

// TestMergeCounts pins where a warm n = 2000 arena merges copies: only at
// receivers that have not decided and that have a view, which the run's own
// trace and its views say (a settled node has none; simdebug builds keep
// every view of a settling run, to check the bits against real broadcast
// state). Static decides at its first copy, so it merges at most one per
// node; Flooding reads no view and keeps none, so it merges nothing (it used
// to merge every copy of the instant its first one arrives in: 9,128);
// Generic-FR merges a twelfth of its copies. Each run equals the same run
// with every copy merged.
func TestMergeCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-node runs")
	}
	g := generateSettle(t, 2000, 18, 1)
	cfg := sim.Config{Hops: 2, Seed: 1}
	for _, c := range []struct {
		name string
		want [2]int // merges in a plain build, in a simdebug build
	}{
		{"flooding", [2]int{0, 0}},
		{"generic-static", [2]int{554, 1999}},
		{"generic-fr", [2]int{729, 2874}},
	} {
		t.Run(c.name, func(t *testing.T) {
			mk, _ := protocol.ByName(c.name)
			arena := sim.NewArena()
			if _, err := sim.RunWith(arena, g, 0, mk(), cfg); err != nil {
				t.Fatal(err)
			}
			rec := &sim.Recorder{}
			cfg := cfg
			cfg.Observer = rec
			res, merges, err := sim.RunCounted(arena, g, 0, mk(), cfg)
			if err != nil || !res.FullDelivery() {
				t.Fatalf("err %v, delivered %d/%d", err, res.Delivered, res.N)
			}
			decided := make([]bool, g.N())
			expect := 0
			for _, e := range rec.Events() {
				switch e.Kind {
				case obsv.TraceTransmit, obsv.TraceNonForward:
					decided[e.Node] = true
				case obsv.TraceDeliver:
					if e.From >= 0 && !decided[e.Node] && sim.HasView(arena, e.Node) {
						expect++
					}
				}
			}
			want := c.want[0]
			if sim.DebugChecks {
				want = c.want[1]
			}
			if merges != expect || merges != want {
				t.Errorf("merged %d of %d copies; the trace says %d, want %d", merges, res.Receipts, expect, want)
			}
			if c.name == "generic-static" && merges > g.N()-1 {
				t.Errorf("merged %d copies into %d receivers' views: more than one each", merges, g.N()-1)
			}
			sim.MergeEverywhere(t)
			all, everywhere, err := sim.RunCounted(arena, g, 0, mk(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if everywhere != all.Receipts || !reflect.DeepEqual(all, res) {
				t.Errorf("merging everywhere: %d merges of %d copies, result equal %v", everywhere, all.Receipts, reflect.DeepEqual(all, res))
			}
		})
	}
}

// FuzzMergeSkipInvisible is TestMergeSkipInvisible over arbitrary small
// worlds: a graph of up to 16 vertices from an edge list (byte pairs, vertex
// count from the first byte, self-loops and repeats dropped), a source, a
// registered protocol, 0-3 hops and a piggyback depth of 1-4. The run with
// merges skipped must equal the one with every copy merged in Result, trace
// bytes and run record; both follow a Generic-Static run that gives the arena
// the generic condition's settled verdicts.
func FuzzMergeSkipInvisible(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 0, 2}, uint8(0), uint8(5), uint8(2), uint8(2))
	f.Add([]byte{15, 0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 2, 6, 1, 7}, uint8(3), uint8(18), uint8(2), uint8(1))
	f.Add([]byte{9, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 6, 4, 7, 5, 8, 6, 7}, uint8(0), uint8(2), uint8(3), uint8(3))
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 6, 6, 3, 0, 3}, uint8(1), uint8(10), uint8(0), uint8(2))
	names := protocol.Names()
	f.Fuzz(func(t *testing.T, edges []byte, source, proto, hops, depth uint8) {
		if len(edges) == 0 {
			return
		}
		g, list := edgeGraph(t, edges)
		n := g.N()
		mk, _ := protocol.ByName(names[int(proto)%len(names)])
		cfg := sim.Config{Hops: int(hops) % 4, PiggybackDepth: 1 + int(depth)%4, Seed: 1}
		arena := sim.NewArena()
		run := func() mergeOutcome {
			if _, err := sim.RunWith(arena, g, 0, protocol.Generic(protocol.TimingStatic), sim.Config{Hops: cfg.Hops}); err != nil {
				t.Fatal(err)
			}
			return runObserved(t, arena, g, int(source)%n, nil, mk, cfg)
		}
		got := run()
		sim.MergeEverywhere(t)
		if d := diffOutcomes(got, run()); d != "" {
			t.Errorf("%s, %d hops, depth %d, source %d on %v: skipping merges changed the %s",
				names[int(proto)%len(names)], cfg.Hops, cfg.PiggybackDepth, int(source)%n, list, d)
		}
	})
}

// edgeGraph decodes a fuzz input's graph of up to 16 vertices: the vertex
// count from the first byte, then byte pairs as edges, self-loops and
// repeats dropped. It returns the graph and its edge list.
func edgeGraph(t *testing.T, edges []byte) (*graph.Graph, [][2]int) {
	t.Helper()
	n := 2 + int(edges[0])%15
	seen := make(map[[2]int]bool)
	var list [][2]int
	for i := 1; i+1 < len(edges); i += 2 {
		u, v := int(edges[i])%n, int(edges[i+1])%n
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			list = append(list, [2]int{u, v})
		}
	}
	g, err := graph.FromEdges(n, list)
	if err != nil {
		t.Fatal(err)
	}
	return g, list
}
