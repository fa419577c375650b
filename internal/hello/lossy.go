package hello

import (
	"fmt"
	"math"
	"math/rand"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/stream"
)

// This file is the imperfect-knowledge side of the hello layer: a lossy,
// seed-deterministic exchange whose per-node results diverge from each other
// and from the truth. The paper's coverage condition is only safe when each
// node's k-hop view (Definition 2) matches reality; running the exchange over
// an unreliable channel produces exactly the per-node, partially wrong views
// the simulator's sim.PerNodeViews consumes, plus the bookkeeping (receipt
// counts, divergence report) the robustness experiments measure.

// Config parameterizes one lossy hello exchange.
type Config struct {
	// Rounds is the number of synchronous exchange rounds k; a lossless
	// exchange of k rounds yields exactly the k-hop views of Definition 2.
	Rounds int
	// LossRate is the independent probability in [0, 1) that one node's
	// hello broadcast is lost on its way to one particular receiver. Zero
	// reproduces the lossless Protocol exactly.
	LossRate float64
	// Seed drives the exchange's private loss stream. The stream is derived
	// from Seed with a purpose tag (the per-purpose RNG discipline of the
	// simulator), so sharing a base seed with other models never couples
	// their draws, and the same Seed always reproduces the same views.
	Seed int64
}

// validate rejects configurations that would silently misbehave.
func (c Config) validate() error {
	if c.Rounds < 0 {
		return fmt.Errorf("hello: negative Rounds %d", c.Rounds)
	}
	if c.LossRate < 0 || c.LossRate >= 1 || math.IsNaN(c.LossRate) {
		return fmt.Errorf("hello: LossRate %v outside [0,1)", c.LossRate)
	}
	return nil
}

// Views holds the outcome of one (possibly lossy) hello exchange: every
// node's learned topology, which nodes it has heard of, how many hellos it
// actually received from each view-neighbor, and which nodes can prove their
// own view incomplete.
type Views struct {
	rounds int
	graphs []*graph.Graph
	known  [][]bool
	// recv[v][u] counts the hellos v successfully received from u.
	recv [][]int
	// incomplete[v] reports that v can prove its view may be missing links:
	// some node v believes to be a neighbor delivered fewer than Rounds
	// hellos, so v knows it missed (at least) what those hellos carried.
	incomplete []bool
}

// Exchange runs cfg.Rounds synchronous hello rounds over the true topology g,
// dropping each hello independently per receiver with probability
// cfg.LossRate. The result is one view per node; with loss the views are
// divergent and possibly incomplete. The exchange is a pure function of
// (g, cfg): the same inputs always produce the same views.
func Exchange(g *graph.Graph, cfg Config) (*Views, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := g.N()
	p := New(g)
	recv := make([][]int, n)
	for v := range recv {
		recv[v] = make([]int, n)
	}
	var drop func(v, u int) bool
	if cfg.LossRate > 0 {
		rng := rand.New(rand.NewSource(stream.Seed(cfg.Seed, "hello/loss")))
		drop = func(v, u int) bool {
			if rng.Float64() < cfg.LossRate {
				return true
			}
			recv[v][u]++
			return false
		}
	} else {
		drop = func(v, u int) bool {
			recv[v][u]++
			return false
		}
	}
	for i := 0; i < cfg.Rounds; i++ {
		p.roundWith(drop)
	}

	vs := &Views{
		rounds:     cfg.Rounds,
		graphs:     make([]*graph.Graph, n),
		known:      make([][]bool, n),
		recv:       recv,
		incomplete: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		vs.graphs[v], vs.known[v] = p.ViewGraph(v)
		// A node audits its own receipts: hello protocols carry round
		// numbers, so v knows when a view-neighbor's hello went missing —
		// and with it, potentially, links v has never heard of.
		vs.graphs[v].ForEachNeighbor(v, func(u int) {
			if recv[v][u] < cfg.Rounds {
				vs.incomplete[v] = true
			}
		})
	}
	return vs, nil
}

// N returns the network size the views cover.
func (vs *Views) N() int { return len(vs.graphs) }

// Rounds returns the number of exchange rounds the views were built from.
func (vs *Views) Rounds() int { return vs.rounds }

// Graph returns node v's learned topology on the global vertex numbering.
// With Incomplete it implements sim.NodeViews, so a *Views plugs into
// sim.PerNodeViews directly. The returned graph is shared: treat it as
// read-only.
func (vs *Views) Graph(v int) *graph.Graph { return vs.graphs[v] }

// Known reports whether node v has heard of node u (itself included).
func (vs *Views) Known(v, u int) bool { return vs.known[v][u] }

// Receipts returns the number of hellos v successfully received from u.
func (vs *Views) Receipts(v, u int) int { return vs.recv[v][u] }

// Incomplete reports whether node v can prove its own view may be missing
// links: it received fewer than Rounds hellos from some node it believes to
// be a neighbor. This is exactly the local, self-detectable signal the
// conservative fallback keys on — a node missing a whole neighbor it never
// heard of (directly or indirectly) has no way to know.
func (vs *Views) Incomplete(v int) bool { return vs.incomplete[v] }

// NodeDivergence quantifies how far one node's view is from the truth.
type NodeDivergence struct {
	// Missing counts links of the true k-hop view absent from the node's
	// learned view (knowledge lost to the channel).
	Missing int
	// Phantom counts links the node believes in that the true k-hop view
	// does not contain (stale knowledge after the topology changed; always
	// zero over a static graph).
	Phantom int
	// Incomplete mirrors Views.Incomplete for this node.
	Incomplete bool
}

// Divergence aggregates per-node view error against a reference topology.
type Divergence struct {
	// Rounds is the k the views (and the reference k-hop views) use.
	Rounds int
	// Nodes holds the per-node reports, indexed by node id.
	Nodes []NodeDivergence
	// MissingLinks and PhantomLinks are the per-node counts summed over all
	// nodes (a link missing from two views counts twice: view error is a
	// per-node condition).
	MissingLinks int
	PhantomLinks int
	// DivergentNodes counts nodes with at least one missing or phantom link.
	DivergentNodes int
	// IncompleteNodes counts nodes whose views are provably incomplete.
	// IncompleteNodes <= DivergentNodes does NOT hold in general: a node may
	// know it missed a hello that carried only links it already knew.
	IncompleteNodes int
}

// Divergence compares every node's learned view against the k-hop view it
// would hold after a lossless exchange over truth (k = Rounds). Passing the
// exchange's own topology measures pure hello loss; passing a later snapshot
// additionally measures staleness (phantom links).
func (vs *Views) Divergence(truth *graph.Graph) (Divergence, error) {
	if truth.N() != vs.N() {
		return Divergence{}, fmt.Errorf("hello: truth has %d nodes, views cover %d", truth.N(), vs.N())
	}
	div := Divergence{
		Rounds: vs.rounds,
		Nodes:  make([]NodeDivergence, vs.N()),
	}
	for v := range div.Nodes {
		want, _ := truth.LocalView(v, vs.rounds)
		got := vs.graphs[v]
		missing := 0
		for _, e := range want.Edges() {
			if !got.HasEdge(e[0], e[1]) {
				missing++
			}
		}
		// Every learned link is either shared with the reference view or
		// phantom, so the phantom count follows from the edge totals.
		phantom := got.M() - (want.M() - missing)
		nd := NodeDivergence{
			Missing:    missing,
			Phantom:    phantom,
			Incomplete: vs.incomplete[v],
		}
		div.Nodes[v] = nd
		div.MissingLinks += missing
		div.PhantomLinks += phantom
		if missing > 0 || phantom > 0 {
			div.DivergentNodes++
		}
		if nd.Incomplete {
			div.IncompleteNodes++
		}
	}
	return div, nil
}
