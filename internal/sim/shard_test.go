package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// atLeastTwoProcs makes the default worker count, GOMAXPROCS, at least 2
// until t ends, so the default configuration can shard on a one-core host.
func atLeastTwoProcs(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestDefaultWorkersMatchSequentialAtScale runs every registered protocol,
// plus one custom protocol.New condition (the visited-union ablation's), on
// a 2000-node, degree-18 network, where first-receipt waves put more timers
// in one instant than the production sharding threshold, and which the
// default worker count's view build splits into two ranges (view.buildGrain
// is 1000): the default worker count must reproduce Workers: 1 exactly
// (Result, event trace, run record), and at least one of the runs must have
// sharded a batch. Each worker count runs on an arena of its own, so the
// default runs read views built split and the sequential ones views built
// whole.
func TestDefaultWorkersMatchSequentialAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-node runs of every protocol")
	}
	atLeastTwoProcs(t)
	net, err := geo.Generate(geo.Config{N: 2000, AvgDegree: 18}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	type input struct {
		name   string
		source int
		mk     func() sim.Protocol
	}
	var inputs []input
	for _, name := range protocol.Names() {
		mk, _ := protocol.ByName(name)
		inputs = append(inputs, input{name, 0, mk})
	}
	// A condition built outside the protocol package (the visited-union
	// ablation's): every CondFunc precomputes, so it must shard like the
	// registered ones. Its wave from node 0 never holds minShard timers in
	// one instant; from node 1 it does.
	const custom = "Generic-NoUnion"
	inputs = append(inputs, input{custom, 1, func() sim.Protocol {
		return protocol.New(protocol.Options{
			Name:      custom,
			Timing:    protocol.TimingFirstReceipt,
			Selection: protocol.SelfPruning,
			Covered: func(st *sim.NodeState, ev *core.Evaluator) bool {
				return ev.CoveredWithoutVisitedUnion(st.View)
			},
			SelfPrune: true,
		})
	}})
	arenas := map[int]*sim.Arena{0: sim.NewArena(), 1: sim.NewArena()}
	sharded := 0
	for _, in := range inputs {
		name := in.name
		run := func(workers int) (sim.Result, bool, []obsv.TraceEvent, *obsv.RunRecord) {
			rec, metrics := &sim.Recorder{}, obsv.NewRunRecord()
			cfg := sim.Config{Hops: 2, Seed: 1, Workers: workers, Observer: rec, Metrics: metrics}
			res, shard, err := sim.RunSharded(arenas[workers], net.G, in.source, in.mk(), cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return res, shard, rec.Events(), metrics
		}
		want, _, wantTrace, wantRec := run(1)
		got, shard, gotTrace, gotRec := run(0)
		if shard {
			sharded++
		} else if name == custom {
			t.Errorf("%s: no batch sharded", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Result diverged\n default:   %+v\n workers=1: %+v", name, got, want)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			i := firstTraceDiff(gotTrace, wantTrace)
			t.Errorf("%s: trace diverged at event %d (default %d / workers=1 %d events)",
				name, i, len(gotTrace), len(wantTrace))
		}
		if !reflect.DeepEqual(gotRec, wantRec) {
			t.Errorf("%s: run record diverged", name)
		}
	}
	t.Logf("%d of %d protocols sharded a batch", sharded, len(inputs))
	if sharded == 0 {
		t.Error("no run sharded a batch: the production-threshold path went untested")
	}
}

// TestSmallRunStaysSequential pins that a paper-sized run never pays for the
// parallel paths: at n = 100, d = 18 no protocol's run with the default
// worker count shards a batch, and a Generic-FR run allocates exactly what
// the same run with Workers: 1 allocates, cold (its view build is one range
// and starts no goroutine) and warm.
func TestSmallRunStaysSequential(t *testing.T) {
	atLeastTwoProcs(t)
	net, err := geo.Generate(geo.Config{N: 100, AvgDegree: 18}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	arena := sim.NewArena()
	for _, name := range protocol.Names() {
		mk, _ := protocol.ByName(name)
		if _, shard, err := sim.RunSharded(arena, net.G, 0, mk(), sim.Config{Hops: 2, Seed: 1}); err != nil || shard {
			t.Errorf("%s: err %v, sharded %v", name, err, shard)
		}
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates per delivery
	}
	// Objects, not bytes: MemStats.Mallocs counts every allocation once,
	// while TotalAlloc counts the tiny allocator's 16-byte blocks, which
	// sub-16-byte pointer-free objects share per P, so equal code can differ
	// by a block. Another goroutine's allocation (the scheduler starting a
	// thread) can only add to a window, so each is taken three times and the
	// least count kept.
	net2, err := geo.Generate(geo.Config{N: 100, AvgDegree: 18}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	allocs := func(workers int) (cold, warm uint64) {
		cfg := sim.Config{Hops: 2, Seed: 1, Workers: workers}
		run := func(g *graph.Graph) {
			if _, err := sim.RunWith(arena, g, 0, protocol.Generic(protocol.TimingFirstReceipt), cfg); err != nil {
				t.Fatal(err)
			}
		}
		cold, warm = math.MaxUint64, math.MaxUint64
		for rep := 0; rep < 3; rep++ {
			run(net2.G) // the next run on net.G rebuilds its views into served memory
			a := mallocs()
			run(net.G)
			b := mallocs()
			for i := 0; i < 4; i++ {
				run(net.G)
			}
			c := mallocs()
			cold, warm = min(cold, b-a), min(warm, c-b)
		}
		return cold, warm
	}
	seqCold, seqWarm := allocs(1)
	defCold, defWarm := allocs(0)
	if defCold != seqCold {
		t.Errorf("a cold run (view rebuild) with default workers allocates %d objects, Workers: 1 %d", defCold, seqCold)
	}
	if defWarm != seqWarm {
		t.Errorf("4 warm runs with default workers allocate %d objects, Workers: 1 %d", defWarm, seqWarm)
	}
}
