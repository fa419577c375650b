// Package fault models deterministic failures for the broadcast simulator:
// fail-stop node crashes, transient node outages (churn), and per-link
// outages. A Plan is a pure function of its generation inputs (graph, Params,
// seed), so the same inputs always produce byte-identical fault schedules —
// the property the degradation experiments rely on for common random numbers
// and reproducibility across parallelism settings.
//
// The simulator (internal/sim) consumes a Plan through Config.Faults: a
// receipt scheduled to arrive at a down node or over a down link is dropped
// and accounted by cause, and timers of down nodes are cancelled. The plan
// itself is passive — it never mutates during a run and may be shared by
// concurrent simulations.
package fault

import (
	"fmt"
	"math"

	"adhocbcast/internal/graph"
)

// Forever is the To endpoint of a fail-stop crash interval.
var Forever = math.Inf(1)

// Interval is a half-open down interval [From, To). A crash is an interval
// with To = Forever.
type Interval struct {
	// From is the time the outage starts.
	From float64
	// To is the time the outage ends (exclusive); Forever for a crash.
	To float64
}

// Contains reports whether time t falls inside the interval.
func (iv Interval) Contains(t float64) bool { return t >= iv.From && t < iv.To }

// Link identifies an undirected link with U < V.
type Link struct {
	U, V int
}

// MakeLink normalizes an endpoint pair into a Link key.
func MakeLink(u, v int) Link {
	if u > v {
		u, v = v, u
	}
	return Link{U: u, V: v}
}

// Plan is one deterministic fault schedule over an n-node network.
type Plan struct {
	// N is the network size the plan was built for.
	N int
	// NodeDown holds each node's down intervals, sorted by From and
	// non-overlapping. A crash is a final interval reaching Forever.
	NodeDown [][]Interval
	// LinkDown holds per-link down intervals, keyed by normalized Link.
	LinkDown map[Link][]Interval
}

// NewEmptyPlan returns a fault-free plan for n nodes, useful as a base for
// hand-built schedules in tests.
func NewEmptyPlan(n int) *Plan {
	return &Plan{N: n, NodeDown: make([][]Interval, n)}
}

// AddNodeDown appends a down interval for node v. Intervals must be added in
// chronological, non-overlapping order (Validate checks).
func (p *Plan) AddNodeDown(v int, iv Interval) {
	p.NodeDown[v] = append(p.NodeDown[v], iv)
}

// AddLinkDown appends a down interval for the link u-v.
func (p *Plan) AddLinkDown(u, v int, iv Interval) {
	if p.LinkDown == nil {
		p.LinkDown = make(map[Link][]Interval)
	}
	k := MakeLink(u, v)
	p.LinkDown[k] = append(p.LinkDown[k], iv)
}

// NodeDownAt reports whether node v is down at time t.
func (p *Plan) NodeDownAt(v int, t float64) bool {
	return downAt(p.NodeDown[v], t)
}

// LinkDownAt reports whether the link u-v is down at time t.
func (p *Plan) LinkDownAt(u, v int, t float64) bool {
	if p.LinkDown == nil {
		return false
	}
	return downAt(p.LinkDown[MakeLink(u, v)], t)
}

// Crashed reports whether node v fail-stops at some point (an interval
// reaching Forever).
func (p *Plan) Crashed(v int) bool {
	_, ok := p.CrashTime(v)
	return ok
}

// CrashTime returns the fail-stop time of node v, if it crashes.
func (p *Plan) CrashTime(v int) (float64, bool) {
	for _, iv := range p.NodeDown[v] {
		if math.IsInf(iv.To, 1) {
			return iv.From, true
		}
	}
	return 0, false
}

func downAt(ivs []Interval, t float64) bool {
	for _, iv := range ivs {
		if iv.Contains(t) {
			return true
		}
		if t < iv.From {
			return false // sorted: later intervals start even later
		}
	}
	return false
}

// Validate checks the plan against a network of n nodes: interval endpoints
// must be finite-ordered (From >= 0, From < To), per-node and per-link lists
// sorted and non-overlapping, and every node id in range.
func (p *Plan) Validate(n int) error {
	if p.N != n {
		return fmt.Errorf("fault: plan built for %d nodes, network has %d", p.N, n)
	}
	if len(p.NodeDown) != n {
		return fmt.Errorf("fault: plan has %d node schedules, want %d", len(p.NodeDown), n)
	}
	for v, ivs := range p.NodeDown {
		if err := validateIntervals(ivs); err != nil {
			return fmt.Errorf("fault: node %d: %w", v, err)
		}
	}
	for l, ivs := range p.LinkDown {
		if l.U < 0 || l.V >= n || l.U >= l.V {
			return fmt.Errorf("fault: bad link %d-%d for %d nodes", l.U, l.V, n)
		}
		if err := validateIntervals(ivs); err != nil {
			return fmt.Errorf("fault: link %d-%d: %w", l.U, l.V, err)
		}
	}
	return nil
}

func validateIntervals(ivs []Interval) error {
	prevTo := 0.0
	for i, iv := range ivs {
		if iv.From < 0 || math.IsNaN(iv.From) || math.IsNaN(iv.To) {
			return fmt.Errorf("interval %d has bad start %v", i, iv.From)
		}
		if iv.To <= iv.From {
			return fmt.Errorf("interval %d is empty or inverted [%v,%v)", i, iv.From, iv.To)
		}
		if iv.From < prevTo {
			return fmt.Errorf("interval %d overlaps or precedes its predecessor", i)
		}
		prevTo = iv.To
	}
	return nil
}

// ReachableFrom returns, per node, whether it is reachable from source in g
// once the plan's crashed nodes are removed. The source itself is always
// reachable (it originates the broadcast before any crash can silence it);
// crashed nodes are excluded both as targets and as relays. A nil plan leaves
// the graph intact, so the result is the source's connected component.
func (p *Plan) ReachableFrom(g *graph.Graph, source int) []bool {
	n := g.N()
	reach := make([]bool, n)
	crashed := func(v int) bool { return p != nil && p.Crashed(v) }
	reach[source] = true
	queue := []int{source}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(x, func(y int) {
			if !reach[y] && !crashed(y) {
				reach[y] = true
				queue = append(queue, y)
			}
		})
	}
	return reach
}
