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

// Walker is a random-direction mobility model: every node moves with a
// constant speed along its own heading and reflects off the area borders.
// Step advances all nodes; Snapshot materializes the current connectivity.
type Walker struct {
	side  float64
	r     float64
	speed float64
	pos   []geo.Point
	dir   []float64 // heading in radians
}

// NewWalker starts a random-direction walk from the positions of net, with
// the given node speed (distance per Step time unit) over a side x side
// area.
func NewWalker(net *geo.Network, side, speed float64, rng *rand.Rand) *Walker {
	w := &Walker{
		side:  side,
		r:     net.Range,
		speed: speed,
		pos:   append([]geo.Point(nil), net.Pos...),
		dir:   make([]float64, len(net.Pos)),
	}
	for i := range w.dir {
		w.dir[i] = rng.Float64() * 2 * math.Pi
	}
	return w
}

// Step advances every node by speed*dt along its heading, reflecting at the
// area borders.
func (w *Walker) Step(dt float64) {
	for i, p := range w.pos {
		x := p.X + w.speed*dt*math.Cos(w.dir[i])
		y := p.Y + w.speed*dt*math.Sin(w.dir[i])
		if x < 0 {
			x = -x
			w.dir[i] = math.Pi - w.dir[i]
		}
		if x > w.side {
			x = 2*w.side - x
			w.dir[i] = math.Pi - w.dir[i]
		}
		if y < 0 {
			y = -y
			w.dir[i] = -w.dir[i]
		}
		if y > w.side {
			y = 2*w.side - y
			w.dir[i] = -w.dir[i]
		}
		w.pos[i] = geo.Point{X: x, Y: y}
	}
}

// Snapshot returns the current connectivity as a network.
func (w *Walker) Snapshot() *geo.Network {
	pos := append([]geo.Point(nil), w.pos...)
	return &geo.Network{
		G:     linkByRange(pos, w.r),
		Pos:   pos,
		Range: w.r,
	}
}

// linkByRange builds the unit disk graph of the positions under range r.
func linkByRange(pos []geo.Point, r float64) *graph.Graph {
	g := graph.New(len(pos))
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			if pos[u].Distance(pos[v]) <= r {
				// Indices are valid vertices by construction.
				_ = g.AddEdge(u, v)
			}
		}
	}
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
