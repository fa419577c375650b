package protocol

import (
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/sim"
)

func lineGraph6(t *testing.T) *graph.Graph {
	t.Helper()
	return mkGraph(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
}

func TestEngineDescribe(t *testing.T) {
	p := New(Options{Name: "X", Timing: TimingBackoffRandom, Selection: Hybrid})
	d, ok := p.(Describer)
	if !ok {
		t.Fatal("engine does not describe itself")
	}
	info := d.Describe()
	if info.Name != "X" || info.Timing != TimingBackoffRandom || info.Selection != Hybrid {
		t.Fatalf("Describe() = %+v", info)
	}
	if p.Name() != "X" {
		t.Fatalf("Name() = %q", p.Name())
	}
}

func TestEngineNilCoveredFloods(t *testing.T) {
	// With no coverage condition, a self-pruning engine degenerates to
	// flooding: every node forwards.
	g := lineGraph6(t)
	p := New(Options{Name: "nil-cond", Timing: TimingFirstReceipt, SelfPrune: true})
	res, err := sim.Run(g, 0, p, sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardCount() != 6 {
		t.Fatalf("forward count = %d, want 6", res.ForwardCount())
	}
}

func TestEngineStaticStatusPrecomputed(t *testing.T) {
	// A static engine whose condition covers everyone forwards only at the
	// source: delivery then fails beyond its neighbors — precisely because
	// the statuses were precomputed and the broadcast state is ignored.
	// (Such a condition violates the coverage requirements; the engine must
	// still execute it faithfully.)
	g := lineGraph6(t)
	always := func(*sim.NodeState, *core.Evaluator) bool { return true }
	p := New(Options{Name: "static-all-covered", Timing: TimingStatic, SelfPrune: true, Covered: always})
	res, err := sim.Run(g, 0, p, sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardCount() != 1 {
		t.Fatalf("forward count = %d, want 1 (source only)", res.ForwardCount())
	}
	if res.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (source + one neighbor)", res.Delivered)
	}
}

func TestEngineStrictDesignationForcesForward(t *testing.T) {
	// A strict neighbor-designating engine where the source designates its
	// highest-id neighbor: that node must forward even though the coverage
	// condition would allow pruning.
	g := lineGraph6(t)
	p := New(Options{
		Name:   "strict",
		Timing: TimingFirstReceipt,
		Covered: func(*sim.NodeState, *core.Evaluator) bool {
			return true // everyone covered: only designations force forwards
		},
		SelfPrune:         true,
		StrictDesignation: true,
		Designate: func(rt sim.Runtime, st *sim.NodeState) []int {
			// Designate the largest neighbor id.
			nbrs := st.View.Neighbors()
			if len(nbrs) == 0 {
				return nil
			}
			return []int{nbrs[len(nbrs)-1]}
		},
	})
	res, err := sim.Run(g, 0, p, sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 0 transmits designating 1; 1 forced, designates 2; and so on down
	// the line: everyone forwards.
	if res.ForwardCount() != 6 {
		t.Fatalf("forward count = %d, want 6 (designation chain)", res.ForwardCount())
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
}

func TestEngineRelaxedNDDeclinesWhenCovered(t *testing.T) {
	// Relaxed ND on a triangle plus tail: source 0 designates 1 and 2; node
	// 1's neighbors {0,2} are directly connected, and with node 2 also
	// designated (higher id, status 1.5), node 1 may decline.
	g := mkGraph(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	p := New(Options{
		Name:      "relaxed-nd",
		Timing:    TimingFirstReceipt,
		Selection: NeighborDesignating,
		Covered:   CoveredGeneric,
		Designate: func(rt sim.Runtime, st *sim.NodeState) []int {
			if st.ID == 0 {
				return []int{1, 2}
			}
			return nil
		},
	})
	res, err := sim.Run(g, 0, p, sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
	for _, v := range res.Forward {
		if v == 1 {
			t.Fatal("node 1 forwarded despite being covered at its designated priority")
		}
	}
	// Node 2 must forward: its neighbor 3 is reachable no other way.
	found := false
	for _, v := range res.Forward {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("node 2 did not forward")
	}
}

func TestEngineUndesignatedNDNodeStaysSilent(t *testing.T) {
	// Pure ND with a designator that never designates: only the source
	// transmits, nobody else may.
	g := lineGraph6(t)
	p := New(Options{
		Name:      "nd-silent",
		Timing:    TimingFirstReceipt,
		Selection: NeighborDesignating,
		Designate: func(sim.Runtime, *sim.NodeState) []int { return nil },
	})
	res, err := sim.Run(g, 0, p, sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardCount() != 1 {
		t.Fatalf("forward count = %d, want 1", res.ForwardCount())
	}
}

func TestEngineBackoffDelaysDecisions(t *testing.T) {
	// FRB completion time must exceed FR completion time on the same
	// workload (backoff trades delay for fewer forwards).
	g := lineGraph6(t)
	fr, err := sim.Run(g, 0, Generic(TimingFirstReceipt), sim.Config{Hops: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	frb, err := sim.Run(g, 0, Generic(TimingBackoffRandom), sim.Config{Hops: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if frb.Finish <= fr.Finish {
		t.Fatalf("FRB finish %v not after FR finish %v", frb.Finish, fr.Finish)
	}
}

func TestEngineTimerAfterSentIsNoop(t *testing.T) {
	// A node designated (strict) forwards on receive; its pending timer
	// must then do nothing. Exercised via a hybrid where designation and
	// self-decision race: full delivery plus forward-once are the
	// observable invariants.
	g := lineGraph6(t)
	res, err := sim.Run(g, 0, HybridMaxDeg(), sim.Config{Hops: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range res.Forward {
		if seen[v] {
			t.Fatalf("node %d forwarded twice", v)
		}
		seen[v] = true
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
}

func TestMPRRequiresPiggyback(t *testing.T) {
	// MPR designations travel in the packet trail; with piggybacking
	// disabled nobody learns their designation and the broadcast stalls
	// after the source. This documents the documented h >= 1 requirement.
	g := lineGraph6(t)
	res, err := sim.Run(g, 0, MPR(), sim.Config{Hops: 2, PiggybackDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullDelivery() {
		t.Fatal("MPR should stall without piggybacked designations")
	}
	res, err = sim.Run(g, 0, MPR(), sim.Config{Hops: 2, PiggybackDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("MPR with h=1 delivered %d/%d", res.Delivered, res.N)
	}
}

func TestMPRRelaxedRuleSkipsNonFirstDesignator(t *testing.T) {
	// Diamond 0-{1,2}-3 with 1-2 connected: node 3 receives first from the
	// earlier transmitter; if that sender did not designate it, node 3
	// stays silent even if the later copy designates it.
	g := mkGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	res, err := sim.Run(g, 0, MPR(), sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d (forward %v)", res.Delivered, res.N, res.Forward)
	}
	// Sanity: MPR(0) on this graph is a single relay (1 covers 3; ties to
	// lowest id), so node 2 must not forward.
	for _, v := range res.Forward {
		if v == 2 {
			t.Fatalf("node 2 forwarded; forward set %v", res.Forward)
		}
	}
}

func TestGenericStrongName(t *testing.T) {
	p := GenericStrong(TimingFirstReceipt)
	if p.Name() != "GenericStrong-FR" {
		t.Fatalf("Name = %q", p.Name())
	}
	if Generic(TimingStatic).Name() != "Generic-Static" {
		t.Fatal("generic static name wrong")
	}
}
