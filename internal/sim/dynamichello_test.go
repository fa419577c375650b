package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestDynamicHelloValidation pins the config contract of BeaconedViews:
// valid beacon parameters run, and invalid ones — an out-of-range loss rate,
// an infinite interval or expiry — are rejected up front.
func TestDynamicHelloValidation(t *testing.T) {
	g := pathGraph(t, 3)
	proto := protocol.Generic(protocol.TimingFirstReceipt)
	if _, err := sim.Run(g, 0, proto, sim.Config{
		Views: sim.BeaconedViews{Hello: hello.Dynamic{Interval: 1}},
	}); err != nil {
		t.Fatalf("valid BeaconedViews rejected: %v", err)
	}
	for _, bad := range []hello.Dynamic{
		{Interval: 1, LossRate: 1.5},
		{Interval: math.Inf(1)},
		{Interval: 1, Expiry: math.Inf(1)},
	} {
		if _, err := sim.Run(g, 0, proto, sim.Config{Views: sim.BeaconedViews{Hello: bad}}); err == nil {
			t.Errorf("invalid BeaconedViews %+v accepted", bad)
		}
	}
}

// TestBeaconedViewsTinyInterval: a lossless beacon schedule with a tiny
// interval used to make the run record walk every beacon round up to the
// finish time. Without loss the clocks have a closed form, so the run returns
// at once, and no node is ever stale.
func TestBeaconedViewsTinyInterval(t *testing.T) {
	g := pathGraph(t, 6)
	var rec obsv.RunRecord
	done := make(chan error, 1)
	go func() {
		_, err := sim.Run(g, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
			Views:   sim.BeaconedViews{Hello: hello.Dynamic{Interval: 1e-10}},
			Metrics: &rec,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if rec.StaleViewHolds != 0 {
			t.Fatalf("StaleViewHolds = %d on a lossless schedule, want 0", rec.StaleViewHolds)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run with a 1e-10 beacon interval did not return")
	}
}

// TestDynamicHelloHoldForwards: with beacon loss making views provably stale
// at decision time, the conservative hold converts prunes into forwards —
// the forward set can only grow, delivery never drops, and the run's
// StaleViewHolds counter records the held nodes. The beacon schedule is a
// pure hash, so the whole comparison is deterministic; the seed loop hunts
// for a schedule whose staleness overlaps decision times.
func TestDynamicHelloHoldForwards(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 8, Seed: 5},
		rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	g := net.G
	proto := func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }
	base, err := sim.Run(g, 0, proto(), sim.Config{Hops: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 64; seed++ {
		views := sim.BeaconedViews{Hello: hello.Dynamic{Interval: 0.5, Expiry: 0.7, LossRate: 0.5, Seed: seed}}
		var rec obsv.RunRecord
		held, err := sim.Run(g, 0, proto(), sim.Config{Hops: 2, Seed: 5, Views: views, Metrics: &rec})
		if err != nil {
			t.Fatal(err)
		}
		if len(held.Forward) < len(base.Forward) {
			t.Fatalf("seed %d: conservative hold shrank the forward set: %d -> %d",
				seed, len(base.Forward), len(held.Forward))
		}
		if held.Delivered < base.Delivered {
			t.Fatalf("seed %d: conservative hold lost delivery: %d -> %d",
				seed, base.Delivered, held.Delivered)
		}
		if len(held.Forward) == len(base.Forward) {
			continue // this schedule's staleness missed every decision; try the next
		}
		if rec.StaleViewHolds == 0 {
			t.Fatalf("seed %d: forwards grew %d -> %d but StaleViewHolds is 0",
				seed, len(base.Forward), len(held.Forward))
		}
		// Determinism: the identical config reproduces the identical result.
		again, err := sim.Run(g, 0, proto(), sim.Config{Hops: 2, Seed: 5, Views: views})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(held.Forward, again.Forward) || held.Delivered != again.Delivered {
			t.Fatalf("seed %d: rerun diverged: %v vs %v", seed, held.Forward, again.Forward)
		}
		return
	}
	t.Fatal("no beacon seed in 1..64 made a stale view overlap a pruning decision")
}
