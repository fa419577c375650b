package sim_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"adhocbcast/internal/geo"
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

// TestDefaultWorkersMatchSequentialAtScale runs every registered protocol on
// a 2000-node, degree-18 network, where first-receipt waves put more timers
// in one instant than the production sharding threshold: the default worker
// count must reproduce Workers: 1 exactly (Result, event trace, run record),
// and at least one of the runs must have sharded a batch.
func TestDefaultWorkersMatchSequentialAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-node runs of every protocol")
	}
	atLeastTwoProcs(t)
	net, err := geo.Generate(geo.Config{N: 2000, AvgDegree: 18}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	arena := sim.NewArena()
	sharded := 0
	for _, name := range protocol.Names() {
		mk, _ := protocol.ByName(name)
		run := func(workers int) (sim.Result, bool, []obsv.TraceEvent, *obsv.RunRecord) {
			rec, metrics := &sim.Recorder{}, obsv.NewRunRecord()
			cfg := sim.Config{Hops: 2, Seed: 1, Workers: workers, Observer: rec, Metrics: metrics}
			res, shard, err := sim.RunSharded(arena, net.G, 0, mk(), cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return res, shard, rec.Events(), metrics
		}
		want, _, wantTrace, wantRec := run(1)
		got, shard, gotTrace, gotRec := run(0)
		if shard {
			sharded++
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
	t.Logf("%d of %d protocols sharded a batch", sharded, len(protocol.Names()))
	if sharded == 0 {
		t.Error("no run sharded a batch: the production-threshold path went untested")
	}
}

// TestSmallRunStaysSequential pins that a paper-sized run never pays for the
// parallel path: at n = 100, d = 18 no protocol's run with the default
// worker count shards a batch, and a warm Generic-FR run allocates exactly
// what the same run with Workers: 1 allocates.
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
	allocs := func(workers int) (objects, bytes uint64) {
		run := func() {
			cfg := sim.Config{Hops: 2, Seed: 1, Workers: workers}
			if _, err := sim.RunWith(arena, net.G, 0, protocol.Generic(protocol.TimingFirstReceipt), cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the arena for this configuration
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	seqObjects, seqBytes := allocs(1)
	defObjects, defBytes := allocs(0)
	if defObjects != seqObjects || defBytes != seqBytes {
		t.Errorf("default workers allocate %d objects / %d B over 4 warm runs, Workers: 1 %d / %d B",
			defObjects, defBytes, seqObjects, seqBytes)
	}
}
