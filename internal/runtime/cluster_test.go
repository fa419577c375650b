package runtime

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func mustCluster(t *testing.T, g *graph.Graph, cfg Config) *Cluster {
	t.Helper()
	cl, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mustBroadcast(t *testing.T, cl *Cluster, source int, plan *fault.Plan) sim.Result {
	t.Helper()
	res, err := cl.Broadcast(source, plan)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res)
	checkSingleTransmission(t, res)
	return res
}

// checkConservation asserts the live analog of the simulator's accounting
// identity: every transmitted copy is delivered or dropped by exactly one
// cause.
func checkConservation(t *testing.T, res sim.Result) {
	t.Helper()
	got := res.Receipts + res.Lost + res.DroppedNodeDown + res.DroppedLinkDown
	if got != res.Copies {
		t.Errorf("conservation broken: receipts %d + lost %d + nodeDown %d + linkDown %d = %d, copies %d",
			res.Receipts, res.Lost, res.DroppedNodeDown, res.DroppedLinkDown, got, res.Copies)
	}
}

// checkSingleTransmission asserts no node appears twice in the forward list
// (a node transmits at most once, whatever duplicates or races occur).
func checkSingleTransmission(t *testing.T, res sim.Result) {
	t.Helper()
	seen := make(map[int]bool, len(res.Forward))
	for _, v := range res.Forward {
		if seen[v] {
			t.Errorf("node %d transmitted twice: forward list %v", v, res.Forward)
		}
		seen[v] = true
	}
}

func TestLiveFloodingPath(t *testing.T) {
	g := pathGraph(t, 5)
	cl := mustCluster(t, g, Config{Protocol: protocol.Flooding})
	res := mustBroadcast(t, cl, 0, nil)
	if res.Delivered != 5 {
		t.Fatalf("delivered %d, want 5", res.Delivered)
	}
	if len(res.Forward) != 5 {
		t.Fatalf("forward %v, want all 5 nodes (flooding)", res.Forward)
	}
	if res.Reachable != 5 || res.DeliveredReachable != 5 {
		t.Fatalf("reachable %d/%d, want 5/5", res.DeliveredReachable, res.Reachable)
	}
}

// TestLiveClusterReuse runs several broadcasts (distinct sources) through one
// cluster: views are reset correctly between broadcasts.
func TestLiveClusterReuse(t *testing.T) {
	g := pathGraph(t, 6)
	cl := mustCluster(t, g, Config{Protocol: func() sim.Protocol {
		return protocol.Generic(protocol.TimingFirstReceipt)
	}})
	for _, src := range []int{0, 3, 5, 0} {
		res := mustBroadcast(t, cl, src, nil)
		if res.Delivered != 6 {
			t.Fatalf("source %d: delivered %d, want 6", src, res.Delivered)
		}
	}
}

// TestLivePartitionRecovered is the recovery headline: a mid-path link is
// down while the wave passes, the receiver senses the garbled copy, and the
// NACK chain's post-heal retransmission completes delivery.
func TestLivePartitionRecovered(t *testing.T) {
	g := pathGraph(t, 3)
	plan := fault.NewEmptyPlan(3)
	plan.AddLinkDown(1, 2, fault.Interval{From: 0, To: 6})
	cl := mustCluster(t, g, Config{
		Protocol:     protocol.Flooding,
		NACKRecovery: true,
		RetryBudget:  8,
		NACKDelay:    0.25,
		RetryBackoff: 0.5,
		Nemesis:      Nemesis{DetectablePartitions: true},
	})
	res := mustBroadcast(t, cl, 0, plan)
	if res.Delivered != 3 {
		t.Fatalf("delivered %d, want 3 (partition heals at t=6, budget covers it): %+v", res.Delivered, res)
	}
	if res.DroppedLinkDown == 0 {
		t.Fatalf("no link drops recorded, partition never bit: %+v", res)
	}
	if res.NACKs == 0 || res.Retransmits == 0 {
		t.Fatalf("recovery never ran: NACKs %d retransmits %d", res.NACKs, res.Retransmits)
	}
}

// TestLiveChurnSilentDrop: copies arriving at a down node vanish without a
// trace — no garble, no NACK — exactly as in the simulator.
func TestLiveChurnSilentDrop(t *testing.T) {
	g := pathGraph(t, 3)
	plan := fault.NewEmptyPlan(3)
	plan.AddNodeDown(1, fault.Interval{From: 0.5, To: 30})
	cl := mustCluster(t, g, Config{
		Protocol:     protocol.Flooding,
		NACKRecovery: true,
		Nemesis:      Nemesis{DetectablePartitions: true},
	})
	res := mustBroadcast(t, cl, 0, plan)
	if res.Delivered != 1 {
		t.Fatalf("delivered %d, want 1 (node 1 down at arrival, drop is silent)", res.Delivered)
	}
	if res.DroppedNodeDown == 0 {
		t.Fatalf("no node-down drop recorded: %+v", res)
	}
	if res.NACKs != 0 {
		t.Fatalf("node-down drops must be undetectable, got %d NACKs", res.NACKs)
	}
}

// TestLiveCrashReachability: a crashed relay partitions the path; the result
// scores delivery against the surviving component.
func TestLiveCrashReachability(t *testing.T) {
	g := pathGraph(t, 3)
	plan := fault.NewEmptyPlan(3)
	plan.AddNodeDown(1, fault.Interval{From: 0.5, To: fault.Forever})
	cl := mustCluster(t, g, Config{Protocol: protocol.Flooding})
	res := mustBroadcast(t, cl, 0, plan)
	if res.Reachable != 1 {
		t.Fatalf("reachable %d, want 1 (crash cuts the path)", res.Reachable)
	}
	if res.DeliveredReachable != 1 {
		t.Fatalf("delivered reachable %d, want 1 (the source)", res.DeliveredReachable)
	}
}

// TestLiveDropRecovery: random drops with recovery enabled still deliver
// everywhere (the budget far exceeds the expected consecutive-drop run).
func TestLiveDropRecovery(t *testing.T) {
	g := pathGraph(t, 6)
	cl := mustCluster(t, g, Config{
		Protocol: func() sim.Protocol {
			return protocol.Generic(protocol.TimingFirstReceipt)
		},
		NACKRecovery: true,
		RetryBudget:  8,
		NACKDelay:    0.25,
		RetryBackoff: 0.5,
		Seed:         11,
		Nemesis:      Nemesis{DropRate: 0.25},
	})
	res := mustBroadcast(t, cl, 0, nil)
	if res.Delivered != 6 {
		t.Fatalf("delivered %d, want 6 with recovery on: %+v", res.Delivered, res)
	}
	if res.Lost == 0 {
		t.Fatalf("drop nemesis never bit (lost=0); raise DropRate or fix the nemesis")
	}
}

// TestLiveDuplication: duplicated and jittered (reordered) copies never make
// a node transmit twice or deliver short.
func TestLiveDuplication(t *testing.T) {
	g := pathGraph(t, 6)
	cl := mustCluster(t, g, Config{
		Protocol: func() sim.Protocol {
			return protocol.Generic(protocol.TimingBackoffRandom)
		},
		Seed:    5,
		Nemesis: Nemesis{DupRate: 0.6, JitterFrac: 0.5},
	})
	res := mustBroadcast(t, cl, 2, nil)
	if res.Delivered != 6 {
		t.Fatalf("delivered %d, want 6", res.Delivered)
	}
	if res.Copies == res.Receipts && res.Copies == 0 {
		t.Fatalf("no traffic recorded: %+v", res)
	}
	if res.Copies <= len(res.Forward) {
		t.Fatalf("duplication nemesis never bit: %d copies for %d forwards", res.Copies, len(res.Forward))
	}
}

// TestLiveDeterministic: two fresh Clusters with the same topology, seed and
// nemesis, driven through the same churn + partition plans, produce the same
// run event for event — identical results (forward order, every counter,
// finish time) and identical run records, broadcast after broadcast.
func TestLiveDeterministic(t *testing.T) {
	const n, seed = 30, 17
	net, err := geo.Generate(geo.Config{N: n, AvgDegree: 6, Seed: seed}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	g := net.G
	var recs [2]obsv.RunRecord
	var cls [2]*Cluster
	for i := range cls {
		cls[i] = mustCluster(t, g, Config{
			Protocol: func() sim.Protocol {
				return protocol.Generic(protocol.TimingBackoffRandom)
			},
			Seed:         seed,
			NACKRecovery: true,
			RetryBudget:  8,
			NACKDelay:    0.25,
			RetryBackoff: 0.5,
			Nemesis: Nemesis{
				DropRate:             0.05,
				DupRate:              0.2,
				JitterFrac:           0.5,
				DetectablePartitions: true,
			},
			Metrics: &recs[i],
		})
	}
	var lost, linkDrops, nodeDrops int
	for b := 0; b < 24; b++ {
		source := (b * 7) % n
		plan, err := fault.NewPlan(g, fault.Params{
			ChurnFraction: 0.15, ChurnWindow: 8, ChurnDuration: 4,
			LinkFraction: 0.2, LinkWindow: 8, LinkDuration: 4,
			Protect: []int{source},
		}, seed+int64(b))
		if err != nil {
			t.Fatal(err)
		}
		var res [2]sim.Result
		for i, cl := range cls {
			res[i] = mustBroadcast(t, cl, source, plan)
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("broadcast %d: results differ:\n%+v\n%+v", b, res[0], res[1])
		}
		if !reflect.DeepEqual(recs[0], recs[1]) {
			t.Fatalf("broadcast %d: run records differ:\n%+v\n%+v", b, recs[0], recs[1])
		}
		lost += res[0].Lost
		linkDrops += res[0].DroppedLinkDown
		nodeDrops += res[0].DroppedNodeDown
	}
	// The adversary must have bitten, or the agreement is vacuous.
	if lost == 0 || linkDrops == 0 || nodeDrops == 0 {
		t.Errorf("nemesis idle: lost %d, link drops %d, node drops %d", lost, linkDrops, nodeDrops)
	}
}

// TestQueueOrder: the run queue pops actions in (at, seq) order however they
// were pushed, ties included.
func TestQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q queue
	for round := 0; round < 50; round++ {
		for i := rng.Intn(40); i >= 0; i-- {
			q.push(action{at: float64(rng.Intn(8)), seq: rng.Int()})
		}
		prev := q.pop()
		for n := rng.Intn(len(q) + 1); n > 0; n-- {
			a := q.pop()
			if a.at < prev.at || (a.at == prev.at && a.seq < prev.seq) {
				t.Fatalf("round %d: popped (%v, %d) after (%v, %d)", round, a.at, a.seq, prev.at, prev.seq)
			}
			prev = a
		}
	}
}

// TestLiveDeadline: a broadcast that cannot quiesce inside the deadline
// aborts with an error instead of hanging.
func TestLiveDeadline(t *testing.T) {
	g := pathGraph(t, 4)
	cl := mustCluster(t, g, Config{
		Protocol: protocol.Flooding,
		Deadline: 0.001,
	})
	if _, err := cl.Broadcast(0, nil); err == nil {
		t.Fatal("expected deadline error, got nil")
	}
}

func TestLiveConfigValidation(t *testing.T) {
	g := pathGraph(t, 2)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil protocol", Config{}},
		{"bad drop rate", Config{Protocol: protocol.Flooding, Nemesis: Nemesis{DropRate: 1.5}}},
		{"bad dup rate", Config{Protocol: protocol.Flooding, Nemesis: Nemesis{DupRate: -0.1}}},
		{"negative jitter", Config{Protocol: protocol.Flooding, Nemesis: Nemesis{JitterFrac: -1}}},
		{"negative budget", Config{Protocol: protocol.Flooding, RetryBudget: -1}},
		{"NaN transmit delay", Config{Protocol: protocol.Flooding, TransmitDelay: math.NaN()}},
		{"infinite transmit delay", Config{Protocol: protocol.Flooding, TransmitDelay: math.Inf(1)}},
		{"NaN backoff window", Config{Protocol: protocol.Flooding, BackoffWindow: math.NaN()}},
		{"infinite NACK delay", Config{Protocol: protocol.Flooding, NACKDelay: math.Inf(1)}},
		{"infinite retry backoff", Config{Protocol: protocol.Flooding, RetryBackoff: math.Inf(1)}},
		{"NaN deadline", Config{Protocol: protocol.Flooding, Deadline: math.NaN()}},
		{"infinite jitter", Config{Protocol: protocol.Flooding, Nemesis: Nemesis{JitterFrac: math.Inf(1)}}},
		{"journal in a cluster", Config{Protocol: protocol.Flooding, JournalDir: "journal"}},
	}
	for _, tc := range cases {
		if _, err := New(g, tc.cfg); err == nil {
			t.Errorf("%s: expected config error, got nil", tc.name)
		}
	}
}
