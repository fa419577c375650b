package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// pathGraph builds 0-1-...-(n-1).
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunBadSource(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := sim.Run(g, -1, protocol.Flooding(), sim.Config{}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := sim.Run(g, 3, protocol.Flooding(), sim.Config{}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestFloodingOnPath(t *testing.T) {
	// On a path every interior node is a cut vertex: even the generic
	// condition cannot prune anything except the far endpoint, and
	// flooding forwards everywhere. Finish time equals the path length.
	g := pathGraph(t, 5)
	res, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
	if res.ForwardCount() != 5 {
		t.Fatalf("flooding forward count = %d, want 5", res.ForwardCount())
	}
	// The far leaf receives at t=4 and (under flooding) retransmits; its
	// redundant copy lands back at node 3 at t=5, the final event.
	if res.Finish != 5 {
		t.Fatalf("finish = %v, want 5", res.Finish)
	}
	// Transmission order on a path is the node order.
	if !reflect.DeepEqual(res.Forward, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("forward order = %v", res.Forward)
	}
}

func TestGenericOnPathPrunesOnlyLastNode(t *testing.T) {
	g := pathGraph(t, 6)
	res, err := sim.Run(g, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Hops: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
	// Nodes 1..4 are cut vertices and must forward; node 5 is a leaf and
	// prunes itself.
	if res.ForwardCount() != 5 {
		t.Fatalf("forward count = %d, want 5 (all but the far leaf)", res.ForwardCount())
	}
	for _, v := range res.Forward {
		if v == 5 {
			t.Fatal("leaf node forwarded")
		}
	}
}

func TestForwardAtMostOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() sim.Protocol{
		protocol.Flooding,
		protocol.DP,
		protocol.HybridMaxDeg,
		func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) },
	} {
		res, err := sim.Run(net.G, 0, mk(), sim.Config{Hops: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, v := range res.Forward {
			if seen[v] {
				t.Fatalf("%T: node %d forwarded twice", mk(), v)
			}
			seen[v] = true
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Hops: 2, Metric: view.MetricDegree, Seed: 77}
	a, err := sim.Run(net.G, 4, protocol.Generic(protocol.TimingBackoffRandom), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(net.G, 4, protocol.Generic(protocol.TimingBackoffRandom), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%v\n%v", a, b)
	}
	// A different seed should (almost surely) change backoff draws; we
	// only require that the run still completes correctly.
	cfg.Seed = 78
	c, err := sim.Run(net.G, 4, protocol.Generic(protocol.TimingBackoffRandom), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.FullDelivery() {
		t.Fatal("reseeded run failed delivery")
	}
}

func TestSourceAlwaysForwards(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net, err := geo.Generate(geo.Config{N: 30, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 30; src += 7 {
		res, err := sim.Run(net.G, src, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{Hops: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Forward) == 0 || res.Forward[0] != src {
			t.Fatalf("source %d did not transmit first: %v", src, res.Forward)
		}
	}
}

// snoopProbe records what one node's view looks like at decision time; it
// exercises the snooped/piggybacked state plumbing end to end.
type snoopProbe struct {
	inner   sim.Protocol
	probe   int
	visited map[int]bool
}

func (p *snoopProbe) Name() string        { return "probe" }
func (p *snoopProbe) Init(rt sim.Runtime) { p.inner.Init(rt) }
func (p *snoopProbe) Start(rt sim.Runtime, source int) {
	p.inner.Start(rt, source)
}

func (p *snoopProbe) OnReceive(rt sim.Runtime, v int, r sim.Receipt) {
	if v == p.probe {
		p.visited = make(map[int]bool)
		st := rt.State(v)
		for x := 0; x < rt.N(); x++ {
			if st.View.IsVisited(x) {
				p.visited[x] = true
			}
		}
	}
	p.inner.OnReceive(rt, v, r)
}

func (p *snoopProbe) OnTimer(rt sim.Runtime, v int) { p.inner.OnTimer(rt, v) }

func TestPiggybackTrailReachesViews(t *testing.T) {
	// Path 0-1-2-3: when node 3 receives the packet from 2, the trail (h=2)
	// carries entries for 1 and 2, so 3's view knows both are visited, plus
	// the sender via snooping.
	g := pathGraph(t, 4)
	probe := &snoopProbe{inner: protocol.Flooding(), probe: 3}
	if _, err := sim.Run(g, 0, probe, sim.Config{Hops: 0, PiggybackDepth: 2}); err != nil {
		t.Fatal(err)
	}
	if probe.visited == nil {
		t.Fatal("probe node never received")
	}
	for _, want := range []int{1, 2} {
		if !probe.visited[want] {
			t.Fatalf("node 3's view misses visited node %d (knows %v)", want, probe.visited)
		}
	}
	if probe.visited[0] {
		t.Fatal("trail depth 2 should have dropped the source entry")
	}
}

func TestPiggybackDisabled(t *testing.T) {
	// With piggybacking disabled only the direct sender is known visited.
	g := pathGraph(t, 4)
	probe := &snoopProbe{inner: protocol.Flooding(), probe: 3}
	if _, err := sim.Run(g, 0, probe, sim.Config{Hops: 0, PiggybackDepth: -1}); err != nil {
		t.Fatal(err)
	}
	if !probe.visited[2] {
		t.Fatal("sender must always be known visited (snooped)")
	}
	if probe.visited[1] || probe.visited[0] {
		t.Fatalf("piggyback disabled but upstream nodes known: %v", probe.visited)
	}
}

func TestResultAccessors(t *testing.T) {
	r := sim.Result{Forward: []int{1, 2}, Delivered: 5, N: 5}
	if r.ForwardCount() != 2 {
		t.Fatalf("ForwardCount = %d", r.ForwardCount())
	}
	if !r.FullDelivery() {
		t.Fatal("FullDelivery = false")
	}
	r.Delivered = 4
	if r.FullDelivery() {
		t.Fatal("FullDelivery = true with missing node")
	}
}

func TestDesignatedByNode(t *testing.T) {
	st := &sim.NodeState{}
	if st.Designated() || st.DesignatedByNode(3) {
		t.Fatal("fresh state reports designation")
	}
	st.DesignatedBy = []int{3, 8}
	if !st.Designated() || !st.DesignatedByNode(8) || st.DesignatedByNode(5) {
		t.Fatal("designation lookups wrong")
	}
}
