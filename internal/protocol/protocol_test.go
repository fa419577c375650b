package protocol_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// factories lists every protocol constructor under its display name.
func factories() map[string]func() sim.Protocol {
	return map[string]func() sim.Protocol{
		"Flooding":       protocol.Flooding,
		"Generic-Static": func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) },
		"Generic-FR":     func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		"Generic-FRB":    func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) },
		"Generic-FRBD":   func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffDegree) },
		"GenericStrong":  func() sim.Protocol { return protocol.GenericStrong(protocol.TimingFirstReceipt) },
		"SP":             protocol.SelfPruningFR,
		"ND":             protocol.NeighborDesignatingFR,
		"MaxDeg":         protocol.HybridMaxDeg,
		"MinPri":         protocol.HybridMinPri,
		"WuLi":           protocol.WuLi,
		"RuleK":          protocol.RuleK,
		"Span":           protocol.Span,
		"MPR":            protocol.MPR,
		"SBA":            protocol.SBA,
		"Stojmenovic":    protocol.Stojmenovic,
		"LimKim-SP":      protocol.LimKimSelfPruning,
		"AHBP":           protocol.AHBP,
		"LENWB":          protocol.LENWB,
		"DP":             protocol.DP,
		"PDP":            protocol.PDP,
		"TDP":            protocol.TDP,
	}
}

// TestFullDeliveryProperty is the central correctness property: every
// protocol must reach every node on every connected workload, across view
// depths, priority metrics, densities and sources.
func TestFullDeliveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	type workload struct {
		net    *geo.Network
		source int
	}
	var workloads []workload
	for _, cfg := range []geo.Config{
		{N: 20, AvgDegree: 4},
		{N: 40, AvgDegree: 6},
		{N: 40, AvgDegree: 12},
		{N: 80, AvgDegree: 6},
	} {
		for i := 0; i < 3; i++ {
			net, err := geo.Generate(cfg, rng)
			if err != nil {
				t.Fatalf("generate %+v: %v", cfg, err)
			}
			workloads = append(workloads, workload{net: net, source: rng.Intn(cfg.N)})
		}
	}
	for name, mk := range factories() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for wi, w := range workloads {
				for _, hops := range []int{2, 3} {
					for _, metric := range []view.Metric{view.MetricID, view.MetricDegree, view.MetricNCR} {
						res, err := sim.Run(w.net.G, w.source, mk(), sim.Config{
							Hops:   hops,
							Metric: metric,
							Seed:   int64(wi + 1),
						})
						if err != nil {
							t.Fatalf("workload %d hops %d metric %v: %v", wi, hops, metric, err)
						}
						if !res.FullDelivery() {
							t.Fatalf("workload %d hops %d metric %v: delivered %d/%d (forward %v)",
								wi, hops, metric, res.Delivered, res.N, res.Forward)
						}
					}
				}
			}
		})
	}
}

// TestFullDeliveryGlobalViews repeats the delivery property under global
// views, where the coverage conditions prune most aggressively.
func TestFullDeliveryGlobalViews(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range factories() {
		res, err := sim.Run(net.G, 3, mk(), sim.Config{Hops: 0, Seed: 9})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.FullDelivery() {
			t.Fatalf("%s: delivered %d/%d under global view", name, res.Delivered, res.N)
		}
	}
}

// TestFullDeliveryExtremeTopologies runs every protocol on adversarial
// deterministic graphs: path, cycle, star, complete graph, and a barbell.
func TestFullDeliveryExtremeTopologies(t *testing.T) {
	topologies := map[string]*graph.Graph{
		"path":     lineGraph(t, 12),
		"cycle":    cycleGraph(t, 12),
		"star":     starGraph(t, 12),
		"complete": completeGraph(t, 8),
		"barbell":  barbellGraph(t, 5),
	}
	for topoName, g := range topologies {
		for protoName, mk := range factories() {
			res, err := sim.Run(g, 0, mk(), sim.Config{Hops: 2, Seed: 2})
			if err != nil {
				t.Fatalf("%s on %s: %v", protoName, topoName, err)
			}
			if !res.FullDelivery() {
				t.Fatalf("%s on %s: delivered %d/%d (forward %v)",
					protoName, topoName, res.Delivered, res.N, res.Forward)
			}
		}
	}
}

// TestStaticForwardSetSourceIndependent checks the defining property of
// static protocols: the same forward node set (modulo the source itself)
// serves every broadcast.
func TestStaticForwardSetSourceIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	net, err := geo.Generate(geo.Config{N: 50, AvgDegree: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	statics := map[string]func() sim.Protocol{
		"Generic-Static": func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) },
		"WuLi":           protocol.WuLi,
		"RuleK":          protocol.RuleK,
		"Span":           protocol.Span,
	}
	sources := []int{0, 17, 42}
	isSource := map[int]bool{0: true, 17: true, 42: true}
	for name, mk := range statics {
		sets := make([]map[int]bool, 0, len(sources))
		for _, src := range sources {
			res, err := sim.Run(net.G, src, mk(), sim.Config{Hops: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Sources forward regardless of status, so compare the sets
			// with every source node removed.
			set := make(map[int]bool, len(res.Forward))
			for _, v := range res.Forward {
				if !isSource[v] {
					set[v] = true
				}
			}
			sets = append(sets, set)
		}
		for i := 1; i < len(sets); i++ {
			if len(sets[i]) != len(sets[0]) {
				t.Fatalf("%s: forward sets differ across sources: %v vs %v", name, sets[0], sets[i])
			}
			for v := range sets[0] {
				if !sets[i][v] {
					t.Fatalf("%s: node %d forwards for one source but not another", name, v)
				}
			}
		}
	}
}

// TestFloodingForwardsEveryone pins the baseline.
func TestFloodingForwardsEveryone(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	net, err := geo.Generate(geo.Config{N: 35, AvgDegree: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(net.G, 0, protocol.Flooding(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardCount() != 35 {
		t.Fatalf("flooding forwarded %d of 35", res.ForwardCount())
	}
}

// TestPruningNeverExceedsFlooding checks every protocol forwards at most as
// many nodes as flooding, and at least one (the source).
func TestPruningNeverExceedsFlooding(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range factories() {
		res, err := sim.Run(net.G, 7, mk(), sim.Config{Hops: 2, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.ForwardCount() < 1 || res.ForwardCount() > 60 {
			t.Fatalf("%s: forward count %d out of range", name, res.ForwardCount())
		}
	}
}

func TestTimingString(t *testing.T) {
	tests := []struct {
		timing protocol.Timing
		want   string
	}{
		{protocol.TimingStatic, "Static"},
		{protocol.TimingFirstReceipt, "FR"},
		{protocol.TimingBackoffRandom, "FRB"},
		{protocol.TimingBackoffDegree, "FRBD"},
		{protocol.Timing(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.timing.String(); got != tt.want {
			t.Fatalf("Timing.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestSelectionString(t *testing.T) {
	if protocol.SelfPruning.String() != "self-pruning" ||
		protocol.NeighborDesignating.String() != "neighbor-designating" ||
		protocol.Hybrid.String() != "hybrid" ||
		protocol.Selection(0).String() != "unknown" {
		t.Fatal("selection names wrong")
	}
}

// TestDescribeTable1 pins the Table 1 classification of the special cases.
func TestDescribeTable1(t *testing.T) {
	tests := []struct {
		mk        func() sim.Protocol
		timing    protocol.Timing
		selection protocol.Selection
	}{
		{mk: protocol.RuleK, timing: protocol.TimingStatic, selection: protocol.SelfPruning},
		{mk: protocol.Span, timing: protocol.TimingStatic, selection: protocol.SelfPruning},
		{mk: protocol.MPR, timing: protocol.TimingStatic, selection: protocol.NeighborDesignating},
		{mk: protocol.LENWB, timing: protocol.TimingFirstReceipt, selection: protocol.SelfPruning},
		{mk: protocol.DP, timing: protocol.TimingFirstReceipt, selection: protocol.NeighborDesignating},
		{mk: protocol.PDP, timing: protocol.TimingFirstReceipt, selection: protocol.NeighborDesignating},
		{mk: protocol.SBA, timing: protocol.TimingBackoffRandom, selection: protocol.SelfPruning},
	}
	for _, tt := range tests {
		p := tt.mk()
		d, ok := p.(protocol.Describer)
		if !ok {
			t.Fatalf("%s does not implement Describer", p.Name())
		}
		info := d.Describe()
		if info.Timing != tt.timing || info.Selection != tt.selection {
			t.Fatalf("%s classified as (%v, %v), want (%v, %v)",
				p.Name(), info.Timing, info.Selection, tt.timing, tt.selection)
		}
		if info.Name != p.Name() {
			t.Fatalf("Describe name %q != Name() %q", info.Name, p.Name())
		}
	}
}

// --- topology helpers ---

func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		addEdge(t, g, i, i+1)
	}
	return g
}

func cycleGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := lineGraph(t, n)
	addEdge(t, g, n-1, 0)
	return g
}

func starGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for v := 1; v < n; v++ {
		addEdge(t, g, 0, v)
	}
	return g
}

func completeGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			addEdge(t, g, u, v)
		}
	}
	return g
}

// barbellGraph joins two k-cliques by a single bridge edge.
func barbellGraph(t *testing.T, k int) *graph.Graph {
	t.Helper()
	g := graph.New(2 * k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			addEdge(t, g, u, v)
			addEdge(t, g, k+u, k+v)
		}
	}
	addEdge(t, g, k-1, k)
	return g
}

func addEdge(t *testing.T, g *graph.Graph, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolNamesUnique guards the registry used by CLIs and experiment
// legends: every constructor must yield a distinct display name.
func TestProtocolNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for key, mk := range factories() {
		name := mk().Name()
		if name == "" {
			t.Fatalf("%s has an empty name", key)
		}
		if seen[name] {
			t.Fatalf("duplicate protocol name %q", name)
		}
		seen[name] = true
	}
}

// TestProtocolsAreFreshPerRun checks that two sequential runs of the same
// constructor do not leak state: static forward sets must be recomputed per
// network.
func TestProtocolsAreFreshPerRun(t *testing.T) {
	rngA := rand.New(rand.NewSource(301))
	netA, err := geo.Generate(geo.Config{N: 40, AvgDegree: 6}, rngA)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := geo.Generate(geo.Config{N: 40, AvgDegree: 6}, rngA)
	if err != nil {
		t.Fatal(err)
	}
	for name, mk := range factories() {
		// Run the SAME protocol value on two different networks: the second
		// run must still achieve full delivery, i.e. Init must rebuild all
		// per-run state.
		p := mk()
		if _, err := sim.Run(netA.G, 0, p, sim.Config{Hops: 2, Seed: 1}); err != nil {
			t.Fatalf("%s on A: %v", name, err)
		}
		res, err := sim.Run(netB.G, 0, p, sim.Config{Hops: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s on B: %v", name, err)
		}
		if !res.FullDelivery() {
			t.Fatalf("%s: stale per-run state broke the second run (%d/%d)",
				name, res.Delivered, res.N)
		}
	}
}

// TestEveryProtocolLeavesPacketsIntact drives every registered protocol down
// the three paths that hand one shared sim.Packet to many holders: a plain
// broadcast (every neighbor's receipt and node state), a lossy one with NACK
// recovery (the sender's retained packet, retransmitted after backoff), and
// concurrent sessions through the carrier-sense MAC (transmit queues, one
// packet slab for all sessions). Any build checks delivery and the drop
// accounting; under -tags simdebug (make test, CI) every run also
// re-fingerprints each packet it built, so a protocol or merge path that
// writes to a delivered packet panics here, naming the transmitter.
func TestEveryProtocolLeavesPacketsIntact(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 30, AvgDegree: 6}, rand.New(rand.NewSource(401)))
	if err != nil {
		t.Fatal(err)
	}
	sessions := []sim.SessionSpec{{Source: 0, At: 0}, {Source: 7, At: 0.5}, {Source: 0, At: 1}, {Source: 19, At: 6}}
	arena := sim.NewArena()
	for _, name := range protocol.Names() {
		mk, _ := protocol.ByName(name)
		plain, err := sim.RunWith(arena, net.G, 0, mk(), sim.Config{Hops: 2, Seed: 5})
		if err != nil || !plain.FullDelivery() {
			t.Errorf("%s plain: err %v, delivered %d/%d", name, err, plain.Delivered, plain.N)
		}
		lossy, err := sim.RunWith(arena, net.G, 0, mk(), sim.Config{Hops: 2, Seed: 5, LossRate: 0.3, NACKRecovery: true})
		if err != nil || lossy.Retransmits == 0 ||
			lossy.Receipts+lossy.Lost+lossy.Collided+lossy.FaultDrops() != lossy.Copies {
			t.Errorf("%s NACK + loss: err %v, result %+v", name, err, lossy)
		}
		mac, err := sim.RunTrafficWith(arena, net.G, sessions, mk, sim.Config{Hops: 2, Seed: 5, CarrierSense: true, NACKRecovery: true})
		if err != nil || mac.Forward < len(sessions) || mac.Retransmits == 0 ||
			mac.Receipts+mac.Lost+mac.Collided+mac.DroppedNodeDown+mac.DroppedLinkDown != mac.Copies {
			t.Errorf("%s carrier-sense traffic: err %v, result %+v", name, err, mac)
		}
	}
}
