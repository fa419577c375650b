// Package soak is the convergence soak harness for the live runtime: it
// hammers internal/runtime clusters with hundreds of broadcasts under a
// partition + churn + loss + duplication nemesis with the NACK recovery
// layer live, and checks two properties the reproduction claims:
//
//  1. Recovery invariant — with recovery on, every broadcast delivers to
//     100% of the nodes the protocol can legitimately promise. Which nodes
//     those are depends on the fault mix, so the invariant runs in two arms:
//
//     Churn arm (Flooding, churn + partitions + loss): delivery must reach
//     every *strictly reachable* node — up for the whole run and connected
//     to the source through such nodes. Flooding never prunes, so every
//     strict node that receives also forwards; along a strict path each
//     dropped copy is detectable (random losses and, with
//     Nemesis.DetectablePartitions, link-outage drops leave a garble) and
//     the receiver-driven NACK chain recovers it. Churned nodes themselves
//     can miss the packet silently (radio off) and are excluded, exactly as
//     the simulator's reachability-aware scoring excludes crashed
//     components.
//
//     Partition arm (Generic-FR and Generic-FRB, partitions + loss, no
//     churn): delivery must reach *every* node. The paper's generic
//     coverage condition credits all higher-priority view members — visited
//     or not — so a self-pruning node may rely on a relay it never heard;
//     under churn that relay can be down and silently miss the packet,
//     which is why no pruning protocol can promise strict-reachable
//     delivery under churn (the churn arm uses Flooding for exactly this
//     reason). With every node up throughout, however, every drop is
//     detectable and recovered, the network is eventually reliable, and the
//     paper's guarantee that the forward set is a connected dominating set
//     applies: the broadcast reaches the source's whole component.
//
//  2. Executor agreement — on the same fault-free topology the live
//     executor and the discrete-event simulator agree: bit-equal forward
//     sets for timing-independent protocols, and equal mean delivery and
//     forward ratios for the receipt-order-sensitive Generic-FR. Both
//     executors run on a virtual clock in (time, seq) order, so receipt
//     order is the same on both sides.
package soak

import (
	"fmt"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	rt "adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"

	"math/rand"
)

// Config parameterizes a soak run. The zero value is not runnable; use
// DefaultConfig as a base.
type Config struct {
	// N and AvgDegree shape the random unit-disk topology.
	N         int
	AvgDegree float64
	// Seed drives topology generation, fault plans, and nemesis streams.
	Seed int64
	// Broadcasts is the number of invariant-arm broadcasts (under nemesis).
	Broadcasts int
	// CompareBroadcasts is the number of fault-free sim-vs-live comparison
	// broadcasts per compared protocol.
	CompareBroadcasts int
}

// DefaultConfig returns the CI soak shape: a 36-node degree-6 network,
// partition + churn + loss + duplication nemesis.
func DefaultConfig(seed int64, broadcasts int) Config {
	return Config{
		N:                 36,
		AvgDegree:         6,
		Seed:              seed,
		Broadcasts:        broadcasts,
		CompareBroadcasts: 40,
	}
}

// Report is the outcome of one soak run.
type Report struct {
	// Broadcasts is the number of invariant-arm broadcasts completed.
	Broadcasts int
	// Violations describes every invariant violation (empty on success).
	Violations []string
	// StrictReachable and DeliveredStrict accumulate the invariant
	// denominator and numerator over all broadcasts.
	StrictReachable int
	DeliveredStrict int
	// Delivered and Reachable accumulate the plain (crash-aware) scoring,
	// for context: churned nodes legitimately miss broadcasts.
	Delivered int
	Reachable int
	// Nemesis activity accumulated over the run, to prove the adversary
	// actually bit: fault drops, random losses, recovery traffic.
	DroppedLinkDown int
	DroppedNodeDown int
	Lost            int
	NACKs           int
	Retransmits     int

	// Comparison-arm aggregates (fault-free, same topology).
	SimMeanDelivery   float64
	LiveMeanDelivery  float64
	SimMeanForward    float64
	LiveMeanForward   float64
	StaticSetMatches  int
	StaticSetCompared int
}

// DeliveryInvariantRatio returns delivered-strict over strict-reachable
// (1.0 means the recovery invariant held everywhere).
func (r Report) DeliveryInvariantRatio() float64 {
	if r.StrictReachable == 0 {
		return 0
	}
	return float64(r.DeliveredStrict) / float64(r.StrictReachable)
}

// strictReachable marks the nodes that have no down interval at all and are
// connected to source through nodes that have none: the set the recovery
// invariant promises 100% delivery to.
func strictReachable(g *graph.Graph, plan *fault.Plan, source int) []bool {
	n := g.N()
	up := make([]bool, n)
	for v := 0; v < n; v++ {
		up[v] = len(plan.NodeDown[v]) == 0
	}
	reach := make([]bool, n)
	if !up[source] {
		return reach
	}
	reach[source] = true
	queue := []int{source}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(x, func(y int) {
			if up[y] && !reach[y] {
				reach[y] = true
				queue = append(queue, y)
			}
		})
	}
	return reach
}

// Run executes the soak and returns its report. It returns an error only
// for setup failures (topology generation, invalid configs) and quiesce
// timeouts; invariant violations are reported in Report.Violations so the
// caller sees all of them at once.
func Run(cfg Config) (Report, error) {
	var rep Report
	net, err := geo.Generate(geo.Config{N: cfg.N, AvgDegree: cfg.AvgDegree, Seed: cfg.Seed},
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return rep, fmt.Errorf("soak: topology: %w", err)
	}
	g := net.G

	// --- Invariant arms (see the package doc): the churn arm floods under
	// churn + partitions + loss and must cover every strict-reachable node;
	// the partition arm runs the pruning protocols with every node up and
	// must cover everything. Budget and backoff are sized so a recovery
	// chain comfortably outlives the longest outage window: attempts
	// continue past the window's end with several budget left, each failing
	// only with the 2% loss rate.
	newCluster := func(mk func() sim.Protocol, streamTag int64) (*rt.Cluster, error) {
		return rt.New(g, rt.Config{
			Protocol:     mk,
			Seed:         cfg.Seed + streamTag,
			NACKRecovery: true,
			RetryBudget:  8,
			NACKDelay:    0.25,
			RetryBackoff: 0.5,
			Deadline:     600,
			Nemesis: rt.Nemesis{
				DropRate:             0.02,
				DupRate:              0.10,
				JitterFrac:           0.25,
				DetectablePartitions: true,
			},
		})
	}
	churnParams := func(source int) fault.Params {
		return fault.Params{
			ChurnFraction: 0.15,
			ChurnWindow:   8,
			ChurnDuration: 4,
			LinkFraction:  0.20,
			LinkWindow:    8,
			LinkDuration:  4,
			Protect:       []int{source},
		}
	}
	partitionParams := func(source int) fault.Params {
		return fault.Params{
			LinkFraction: 0.25,
			LinkWindow:   8,
			LinkDuration: 4,
			Protect:      []int{source},
		}
	}
	arms := []struct {
		name   string
		make   func() sim.Protocol
		params func(source int) fault.Params
	}{
		{"Flooding/churn", protocol.Flooding, churnParams},
		{"Generic-FR/partition", func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }, partitionParams},
		{"Generic-FRB/partition", func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }, partitionParams},
	}
	clusters := make([]*rt.Cluster, len(arms))
	for i, a := range arms {
		cl, err := newCluster(a.make, int64(i))
		if err != nil {
			return rep, fmt.Errorf("soak: cluster %s: %w", a.name, err)
		}
		clusters[i] = cl
	}
	for i := 0; i < cfg.Broadcasts; i++ {
		source := i % cfg.N
		// Alternate churn-arm and partition-arm broadcasts so both halves of
		// the invariant get half the budget whatever the total count.
		var ai int
		if i%2 == 0 {
			ai = 0
		} else {
			ai = 1 + (i/2)%2
		}
		arm := arms[ai]
		planSeed := cfg.Seed + int64(1000+i)
		plan, err := fault.NewPlan(g, arm.params(source), planSeed)
		if err != nil {
			return rep, fmt.Errorf("soak: plan %d: %w", i, err)
		}
		res, err := clusters[ai].Broadcast(source, plan)
		if err != nil {
			return rep, fmt.Errorf("soak: broadcast %d (%s, source %d): %w",
				i, arm.name, source, err)
		}
		rep.Broadcasts++
		rep.Delivered += res.Delivered
		rep.Reachable += res.Reachable
		rep.DroppedLinkDown += res.DroppedLinkDown
		rep.DroppedNodeDown += res.DroppedNodeDown
		rep.Lost += res.Lost
		rep.NACKs += res.NACKs
		rep.Retransmits += res.Retransmits

		// In the partition arm no node is ever down, so the strict set is
		// the whole component and this scores "every node".
		strict := strictReachable(g, plan, source)
		deliveredSet := clusters[ai].DeliveredNodes()
		for v := 0; v < cfg.N; v++ {
			if !strict[v] {
				continue
			}
			rep.StrictReachable++
			if deliveredSet[v] {
				rep.DeliveredStrict++
			} else {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"broadcast %d (%s, source %d): strict-reachable node %d undelivered (plan seed %d)",
					i, arm.name, source, v, planSeed))
			}
		}
	}

	// --- Comparison arm: fault-free, nemesis off. Static forward sets must
	// match bit-for-bit; Generic-FR aggregates must agree exactly.
	if cfg.CompareBroadcasts > 0 {
		if err := compare(&rep, g, cfg); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

func compare(rep *Report, g *graph.Graph, cfg Config) error {
	staticCl, err := rt.New(g, rt.Config{
		Protocol: func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) },
		Seed:     cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("soak: compare cluster: %w", err)
	}
	frCl, err := rt.New(g, rt.Config{
		Protocol: func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		Seed:     cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("soak: compare cluster: %w", err)
	}
	var simDel, liveDel, simFwd, liveFwd float64
	for i := 0; i < cfg.CompareBroadcasts; i++ {
		source := (i * 7) % cfg.N

		// Timing-independent protocol: exact forward-set equality.
		simStatic, err := sim.Run(g, source, protocol.Generic(protocol.TimingStatic), sim.Config{Seed: cfg.Seed})
		if err != nil {
			return fmt.Errorf("soak: sim static: %w", err)
		}
		liveStatic, err := staticCl.Broadcast(source, nil)
		if err != nil {
			return fmt.Errorf("soak: live static: %w", err)
		}
		rep.StaticSetCompared++
		if sameSet(simStatic.Forward, liveStatic.Forward) {
			rep.StaticSetMatches++
		} else {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"compare %d: static forward sets differ: sim %v, live %v",
				i, simStatic.Forward, liveStatic.Forward))
		}

		// Receipt-order-sensitive protocol: aggregate agreement.
		simFR, err := sim.Run(g, source, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Seed: cfg.Seed})
		if err != nil {
			return fmt.Errorf("soak: sim FR: %w", err)
		}
		liveFR, err := frCl.Broadcast(source, nil)
		if err != nil {
			return fmt.Errorf("soak: live FR: %w", err)
		}
		simDel += simFR.DeliveryRatio()
		liveDel += liveFR.DeliveryRatio()
		simFwd += float64(len(simFR.Forward)) / float64(cfg.N)
		liveFwd += float64(len(liveFR.Forward)) / float64(cfg.N)
	}
	k := float64(cfg.CompareBroadcasts)
	rep.SimMeanDelivery = simDel / k
	rep.LiveMeanDelivery = liveDel / k
	rep.SimMeanForward = simFwd / k
	rep.LiveMeanForward = liveFwd / k
	if rep.SimMeanDelivery != rep.LiveMeanDelivery {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"mean delivery disagrees: sim %.4f, live %.4f", rep.SimMeanDelivery, rep.LiveMeanDelivery))
	}
	if rep.SimMeanForward != rep.LiveMeanForward {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"mean forward ratio disagrees: sim %.4f, live %.4f", rep.SimMeanForward, rep.LiveMeanForward))
	}
	return nil
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	for _, v := range b {
		if !in[v] {
			return false
		}
	}
	return true
}
