package protocol

import "adhocbcast/internal/sim"

// MPR returns the multipoint-relay protocol of Qayyum et al. (Section 6.3):
// every node proactively selects a minimal relay set among its neighbors
// covering its 2-hop neighborhood; a node forwards iff it is a relay of the
// neighbor it received its first packet copy from (the relaxed
// designating-time rule). MPR requires a piggyback depth of at least 1 so
// that designations travel with the packet.
func MPR() sim.Protocol {
	return &mpr{}
}

type mpr struct {
	sets [][]int // sets[v] = MPR(v), computed proactively from topology
}

var (
	_ sim.Protocol = (*mpr)(nil)
	_ Describer    = (*mpr)(nil)
)

func (m *mpr) Name() string { return "MPR" }

func (m *mpr) Describe() Info {
	return Info{
		Name:      "MPR",
		Timing:    TimingStatic,
		Selection: NeighborDesignating,
	}
}

func (m *mpr) Init(rt sim.Runtime) {
	m.sets = make([][]int, rt.N())
	rt.ForEachLocalNode(func(v int) {
		lv := rt.State(v).View
		// Visited nodes are never considered: the whole 2-hop neighborhood
		// must be covered by relays (static selection).
		m.sets[v] = GreedyCover(lv, lv.Neighbors(), lv.TwoHopTargets())
	})
}

func (m *mpr) Start(rt sim.Runtime, source int) {
	rt.Transmit(source, m.sets[source], nil)
}

func (m *mpr) OnReceive(rt sim.Runtime, v int, r sim.Receipt) {
	st := rt.State(v)
	if st.Sent || st.Receipts != 1 {
		return
	}
	// Relaxed neighbor-designating rule: forward iff this node is a relay
	// of the sender of its first copy. Relays of other designators need not
	// forward — their neighbors are covered by the first sender's relays,
	// whose designating times are earlier. A node whose view is provably
	// incomplete (conservative fallback) cannot trust that reasoning — its
	// missing links may hide exactly the designation it never saw — so it
	// forwards instead of pruning (the default-forward safety property).
	if st.DesignatedByNode(r.From) || rt.ConservativeHold(v) {
		rt.Transmit(v, m.sets[v], nil)
		return
	}
	rt.MarkNonForward(v)
}

func (m *mpr) OnTimer(sim.Runtime, int) {}
