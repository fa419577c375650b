// Package hello implements the neighborhood-discovery layer the framework's
// local views rest on (Section 4.3): nodes periodically exchange "hello"
// messages carrying everything they currently know about the topology, and
// after k rounds every node holds exactly the k-hop information of
// Definition 2. The package runs the exchange as an actual message-passing
// protocol, so the "it takes at least k rounds of neighborhood information
// exchanges" claim is executable and testable rather than assumed.
package hello

import "adhocbcast/internal/graph"

// message is one hello broadcast: the sender's id plus the link set it has
// learned so far.
type message struct {
	from  int
	links [][2]int
}

// nodeState is the per-node knowledge base.
type nodeState struct {
	// links holds learned links keyed by canonical (min,max) pairs.
	links map[[2]int]bool
}

// Protocol simulates synchronous hello rounds over a (true) connectivity
// graph g. After construction each node knows only its own id (0-hop
// information); each round makes every node broadcast its knowledge to its
// neighbors and merge what it hears. Exchange runs the rounds.
type Protocol struct {
	g     *graph.Graph
	nodes []*nodeState
}

// New prepares a hello exchange over g.
func New(g *graph.Graph) *Protocol {
	p := &Protocol{
		g:     g,
		nodes: make([]*nodeState, g.N()),
	}
	for v := 0; v < g.N(); v++ {
		p.nodes[v] = &nodeState{links: make(map[[2]int]bool)}
	}
	return p
}

// roundWith runs one synchronous exchange: every node broadcasts a hello
// with its current knowledge; every node merges the hellos of its neighbors.
// Receiving a hello also reveals the link to its sender. The per-delivery
// drop hook drop(v, u) decides whether the hello from u is lost on its way to
// v. It is consulted exactly once per (receiver, sender) pair, receivers in
// ascending id order and senders in ascending neighbor order, so a seeded
// stochastic hook yields a deterministic exchange.
func (p *Protocol) roundWith(drop func(recv, from int) bool) {
	msgs := make([]message, len(p.nodes))
	for v, st := range p.nodes {
		links := make([][2]int, 0, len(st.links))
		for l := range st.links {
			links = append(links, l)
		}
		msgs[v] = message{from: v, links: links}
	}
	for v, st := range p.nodes {
		p.g.ForEachNeighbor(v, func(u int) {
			if drop(v, u) {
				return
			}
			m := msgs[u]
			st.links[canonical(v, m.from)] = true
			for _, l := range m.links {
				st.links[l] = true
			}
		})
	}
}

// ViewGraph assembles node v's learned topology as a graph on the original
// vertex numbering.
func (p *Protocol) ViewGraph(v int) *graph.Graph {
	links := make([][2]int, 0, len(p.nodes[v].links))
	for l := range p.nodes[v].links {
		links = append(links, l)
	}
	// The learned links are distinct links of the true graph.
	g, _ := graph.FromEdges(p.g.N(), links)
	return g
}

func canonical(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
