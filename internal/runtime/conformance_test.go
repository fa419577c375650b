package runtime

import (
	"math/rand"
	"sort"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// The conformance suite runs the same protocols through both executors —
// the discrete-event simulator and the live cluster — over a table of
// topologies, and checks the executor-independent properties of the
// sim.Runtime contract: delivery sets match, nodes transmit at most once
// (duplicate suppression), accounting is conserved, and the exact forward
// sets match for every protocol marked exact. Both executors order events
// by (time, seq) on a virtual clock, so receipt-order-sensitive protocols
// agree too; what can still differ is a random backoff draw, which each
// executor takes from its own differently seeded stream.

type confTopology struct {
	name   string
	g      *graph.Graph
	source int
	// component is the size of the source's connected component (what full
	// delivery means on this topology).
	component int
}

func confTopologies(t *testing.T) []confTopology {
	t.Helper()
	path := pathGraph(t, 6)

	star := graph.New(7)
	for v := 0; v < 7; v++ {
		if v != 3 {
			if err := star.AddEdge(3, v); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Two triangles joined by a bridge: pruning has real choices here.
	bridge := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {4, 5}} {
		if err := bridge.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	// Disconnected: delivery stops at the component boundary in both
	// executors.
	split := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := split.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	udg, err := geo.Generate(geo.Config{N: 24, AvgDegree: 5}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	return []confTopology{
		{"path6", path, 0, 6},
		{"star7", star, 1, 7},
		{"bridge", bridge, 0, 6},
		{"split", split, 0, 3},
		{"udg24", udg.G, 0, 24},
	}
}

type confProtocol struct {
	name string
	make func() sim.Protocol
	// deterministic marks protocols whose live forward set equals the
	// simulator's on every topology of the table. SBA's random backoff
	// draws pick a different (equally valid) set on udg24.
	deterministic bool
}

func confProtocols() []confProtocol {
	return []confProtocol{
		{"Flooding", protocol.Flooding, true},
		{"Generic-Static", func() sim.Protocol { return protocol.Generic(protocol.TimingStatic) }, true},
		{"Generic-FR", func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) }, true},
		{"Generic-FRB", func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffRandom) }, true},
		{"Generic-FRBD", func() sim.Protocol { return protocol.Generic(protocol.TimingBackoffDegree) }, true},
		{"GenericStrong-Static", func() sim.Protocol { return protocol.GenericStrong(protocol.TimingStatic) }, true},
		{"MPR", protocol.MPR, true},
		{"SBA", protocol.SBA, false},
		{"AHBP", protocol.AHBP, true},
		{"TDP", protocol.TDP, true},
	}
}

func sortedCopy(a []int) []int {
	b := append([]int(nil), a...)
	sort.Ints(b)
	return b
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConformanceSimVsLive(t *testing.T) {
	for _, topo := range confTopologies(t) {
		for _, p := range confProtocols() {
			topo, p := topo, p
			t.Run(topo.name+"/"+p.name, func(t *testing.T) {
				t.Parallel()
				simRes, err := sim.Run(topo.g, topo.source, p.make(), sim.Config{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				cl, err := New(topo.g, Config{Protocol: p.make, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				liveRes, err := cl.Broadcast(topo.source, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkConservation(t, liveRes)
				checkSingleTransmission(t, liveRes)
				checkSingleTransmission(t, simRes)

				if simRes.Delivered != topo.component {
					t.Errorf("sim delivered %d, want component %d", simRes.Delivered, topo.component)
				}
				if liveRes.Delivered != simRes.Delivered {
					t.Errorf("delivery mismatch: sim %d, live %d", simRes.Delivered, liveRes.Delivered)
				}
				if liveRes.N != simRes.N || liveRes.Reachable != simRes.Reachable {
					t.Errorf("scoring mismatch: sim N=%d reach=%d, live N=%d reach=%d",
						simRes.N, simRes.Reachable, liveRes.N, liveRes.Reachable)
				}
				if p.deterministic {
					sf, lf := sortedCopy(simRes.Forward), sortedCopy(liveRes.Forward)
					if !equalInts(sf, lf) {
						t.Errorf("forward set mismatch:\n sim  %v\n live %v", sf, lf)
					}
				} else if len(liveRes.Forward) == 0 {
					t.Errorf("live run never transmitted (sim forwarded %d nodes)", len(simRes.Forward))
				}
			})
		}
	}
}

// TestConformanceDuplicates drives both executors through their duplication
// mechanism (live nemesis DupRate; the simulator has no duplication model,
// so its side of this check is the recovery layer retransmitting to nodes
// that already hold the packet) and asserts duplicate suppression: delivery
// is full and nobody transmits twice.
func TestConformanceDuplicates(t *testing.T) {
	topo := pathGraph(t, 6)
	for _, p := range confProtocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			cl, err := New(topo, Config{
				Protocol: p.make,
				Seed:     3,
				Nemesis:  Nemesis{DupRate: 0.5, JitterFrac: 0.3},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := cl.Broadcast(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, res)
			checkSingleTransmission(t, res)
			if res.Delivered != 6 {
				t.Errorf("delivered %d under duplication, want 6", res.Delivered)
			}
		})
	}
}

// timerProbe is a minimal protocol that exercises Runtime.SetTimer ordering:
// the source schedules several timers with decreasing-then-increasing delays
// and records the order they fire in. Both executors must fire them in delay
// order.
type timerProbe struct {
	delays []float64
	fired  []int // Now() in milli-units at each firing, in firing order
}

func (p *timerProbe) Name() string                                   { return "timer-probe" }
func (p *timerProbe) Init(rt sim.Runtime)                            {}
func (p *timerProbe) OnReceive(rt sim.Runtime, v int, r sim.Receipt) {}

func (p *timerProbe) Start(rt sim.Runtime, source int) {
	for _, d := range p.delays {
		rt.SetTimer(source, d)
	}
}

func (p *timerProbe) OnTimer(rt sim.Runtime, v int) {
	p.fired = append(p.fired, int(rt.Now()*1000))
}

// TestConformanceTimerOrdering: timers set with delays {5, 1, 3} must fire
// in delay order, at exactly the delays, on both executors.
func TestConformanceTimerOrdering(t *testing.T) {
	g := pathGraph(t, 2)
	delays := []float64{5, 1, 3}
	want := []int{1000, 3000, 5000}

	simProbe := &timerProbe{delays: delays}
	if _, err := sim.Run(g, 0, simProbe, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	if !equalInts(simProbe.fired, want) {
		t.Errorf("sim timers fired at %v (milli-units), want %v", simProbe.fired, want)
	}

	liveProbe := &timerProbe{delays: delays}
	cl, err := New(g, Config{Protocol: func() sim.Protocol { return liveProbe }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Broadcast(0, nil); err != nil {
		t.Fatal(err)
	}
	if !equalInts(liveProbe.fired, want) {
		t.Errorf("live timers fired at %v (milli-units), want %v", liveProbe.fired, want)
	}
}
