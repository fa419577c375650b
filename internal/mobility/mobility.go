// Package mobility models node movement for the paper's mobility discussion
// (Section 1 and the authors' companion work): the hello exchange captures a
// topology snapshot, nodes move before or during the broadcast, and the
// protocols then operate on *stale* local views while packets propagate over
// the *actual* connectivity. The paper claims full coverage is impossible
// under topology change but that moderate mobility is balanced by a slight
// increase in broadcast redundancy; the experiments built on this package
// quantify both statements.
package mobility

import (
	"math"
	"math/rand"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/stream"
)

// Perturbed returns a copy of net in which every node moved a uniform
// random distance in [0, maxStep] in a uniform random direction (clamped to
// the deployment area), with links recomputed for the same radio range.
// The returned network represents the actual connectivity after movement;
// the original represents the stale topology the hello exchange captured.
//
// The movement draws come from a private stream derived from seed (the same
// per-purpose discipline as the simulator's rng split): perturbing a network
// consumes nothing from any caller-owned stream, so adding or removing a
// perturbation can never shift topology generation, source selection, or
// protocol randomness seeded elsewhere.
func Perturbed(net *geo.Network, side, maxStep float64, seed int64) *geo.Network {
	rng := rand.New(rand.NewSource(stream.Seed(seed, "mobility/perturb")))
	pos := make([]geo.Point, len(net.Pos))
	for i, p := range net.Pos {
		angle := rng.Float64() * 2 * math.Pi
		dist := rng.Float64() * maxStep
		pos[i] = clamp(geo.Point{
			X: p.X + dist*math.Cos(angle),
			Y: p.Y + dist*math.Sin(angle),
		}, side)
	}
	return &geo.Network{
		G:     linkByRange(pos, net.Range),
		Pos:   pos,
		Range: net.Range,
	}
}

// linkByRange builds the unit disk graph of the positions under range r.
func linkByRange(pos []geo.Point, r float64) *graph.Graph {
	var links [][2]int
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			if pos[u].Distance(pos[v]) <= r {
				links = append(links, [2]int{u, v})
			}
		}
	}
	// Each pair is listed once, and indices are valid vertices.
	g, _ := graph.FromEdges(len(pos), links)
	return g
}

func clamp(p geo.Point, side float64) geo.Point {
	if p.X < 0 {
		p.X = 0
	}
	if p.X > side {
		p.X = side
	}
	if p.Y < 0 {
		p.Y = 0
	}
	if p.Y > side {
		p.Y = side
	}
	return p
}
