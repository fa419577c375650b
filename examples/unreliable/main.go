// Unreliable: broadcast under real-world conditions — a collision MAC where
// synchronized retransmissions destroy each other, forwarding jitter to
// de-synchronize them, and node mobility that leaves every view stale. It
// demonstrates the two prose claims of the paper's introduction: jitter
// relieves the broadcast storm, and moderate mobility is absorbed by
// broadcast redundancy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/mobility"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(42))
	net, err := geo.Generate(geo.Config{N: 100, AvgDegree: 6}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("network: %d nodes, %d links\n\n", net.G.N(), net.G.M())

	// Part 1: the broadcast storm. Under a collision MAC, flooding's
	// synchronized wave collides with itself; one slot of jitter fixes it.
	fmt.Println("collision MAC (averaged over 25 broadcasts):")
	for _, tc := range []struct {
		label  string
		mk     func() sim.Protocol
		jitter float64
	}{
		{label: "flooding, no jitter", mk: protocol.Flooding},
		{label: "flooding, 1-slot jitter", mk: protocol.Flooding, jitter: 1},
		{label: "generic FR, no jitter", mk: func() sim.Protocol {
			return protocol.Generic(protocol.TimingFirstReceipt)
		}},
	} {
		delivery, collided := 0.0, 0
		const runs = 25
		for i := 0; i < runs; i++ {
			res, err := sim.Run(net.G, i%100, tc.mk(), sim.Config{
				Hops:       2,
				Collisions: true,
				TxJitter:   tc.jitter,
				Seed:       int64(i + 1),
			})
			if err != nil {
				return err
			}
			delivery += res.DeliveryRatio()
			collided += res.Collided
		}
		fmt.Printf("  %-26s delivery %5.1f%%   collided copies/run %5.1f\n",
			tc.label, 100*delivery/runs, float64(collided)/runs)
	}

	// Part 2: mobility. Views come from a pre-movement snapshot; packets
	// propagate over the moved topology.
	fmt.Println("\nstale views under mobility (max step 5 units, 25 broadcasts):")
	for _, tc := range []struct {
		label string
		mk    func() sim.Protocol
	}{
		{label: "flooding", mk: protocol.Flooding},
		{label: "SBA (redundant)", mk: protocol.SBA},
		{label: "generic FR (aggressive)", mk: func() sim.Protocol {
			return protocol.Generic(protocol.TimingFirstReceipt)
		}},
	} {
		delivery := 0.0
		const runs = 25
		for i := 0; i < runs; i++ {
			moved := mobility.Perturbed(net, 100, 5, int64(100+i))
			res, err := sim.Run(moved.G, i%100, tc.mk(), sim.Config{
				Hops:  2,
				Views: sim.SharedViews{Topology: net.G},
				Seed:  int64(i + 1),
			})
			if err != nil {
				return err
			}
			delivery += res.DeliveryRatio()
		}
		fmt.Printf("  %-26s delivery %5.1f%%\n", tc.label, 100*delivery/runs)
	}
	fmt.Println("\nmore redundancy -> more mobility tolerance; jitter -> fewer collisions")
	return nil
}
