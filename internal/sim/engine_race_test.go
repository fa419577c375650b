package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestParallelEngineStress drives the multi-worker fast engine hard enough
// that `go test -race ./internal/sim/...` is meaningful: a network large
// enough for big same-instant batches, protocols whose timers the parallel
// precompute decides (first-receipt waves and backoff timers) and one with
// none (static timing), several replicates through one shared Arena, and a
// determinism check that every worker count agrees.
// Every batch shards (ShardEveryBatch): no batch of this network reaches the
// production threshold.
func TestParallelEngineStress(t *testing.T) {
	sim.ShardEveryBatch(t)
	rng := rand.New(rand.NewSource(31))
	net, err := geo.Generate(geo.Config{N: 400, AvgDegree: 10}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	protos := []func() sim.Protocol{
		// Synchronized first-receipt waves: the whole frontier's timers
		// fire in one batch.
		func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		// Backoff timers: the timer-verdict precompute path.
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) },
		func() sim.Protocol { return protocol.GenericStrong(protocol.TimingBackoffDegree) },
		// Static timing: no timers, so nothing to precompute.
		func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) },
	}
	arena := sim.NewArena()
	for _, mk := range protos {
		p := mk()
		t.Run(p.Name(), func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				cfg := sim.Config{Hops: 2, Seed: int64(100 + rep)}
				var want sim.Result
				for i, workers := range []int{1, 4, 8} {
					cfg.Workers = workers
					res, err := sim.RunWith(arena, net.G, rep, mk(), cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if i == 0 {
						want = res
						if !res.FullDelivery() {
							t.Fatalf("delivered %d of %d", res.Delivered, res.N)
						}
					} else if !reflect.DeepEqual(res, want) {
						t.Fatalf("workers=%d diverged from workers=1: %+v vs %+v",
							workers, res, want)
					}
				}
			}
		})
	}
}
