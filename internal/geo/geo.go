// Package geo generates the random unit disk graph workloads used in the
// paper's evaluation: n nodes placed uniformly at random in a restricted
// 100x100 area, with the transmitter range adjusted so that the resulting
// unit disk graph has exactly n*d/2 links for a requested average degree d.
// Networks that are not connected are discarded and regenerated.
//
// The generator is grid-indexed (see grid.go): it only examines pairs within
// an estimated range, which is what makes n in the tens of thousands
// feasible. Its tests pin it, edge for edge, against a reference that sorts
// all n(n-1)/2 candidate links.
package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"adhocbcast/internal/graph"
)

// Point is a node position in the deployment area.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Config describes a random network workload.
type Config struct {
	// N is the number of nodes.
	N int
	// AvgDegree is the target average node degree d; the unit disk radius is
	// chosen so the graph has exactly round(N*d/2) links.
	AvgDegree float64
	// Side is the side length of the square deployment area (default 100).
	Side float64
	// MaxAttempts bounds the connected-graph rejection sampling
	// (default 1000).
	MaxAttempts int
	// Seed is a diagnostic label only: generation randomness comes from the
	// rng passed to Generate, but callers that seed that rng should record
	// the seed here so a failed generation names the placement stream that
	// produced it.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Side <= 0 {
		c.Side = 100
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1000
	}
	return c
}

// Validate reports whether the configuration can produce a network at all.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.N < 2 {
		return fmt.Errorf("geo: need at least 2 nodes, got %d", c.N)
	}
	if c.N > math.MaxInt32 {
		return fmt.Errorf("geo: at most %d nodes, got %d", math.MaxInt32, c.N)
	}
	if math.IsNaN(c.AvgDegree) || math.IsInf(c.AvgDegree, 0) || c.AvgDegree <= 0 {
		return fmt.Errorf("geo: average degree must be positive and finite, got %g", c.AvgDegree)
	}
	if math.IsNaN(c.Side) || math.IsInf(c.Side, 0) {
		return fmt.Errorf("geo: side must be finite, got %g", c.Side)
	}
	// links' target, compared before its int conversion could wrap.
	if math.Round(float64(c.N)*c.AvgDegree/2) > float64(c.N)*float64(c.N-1)/2 {
		return fmt.Errorf("geo: average degree %g impossible for %d nodes", c.AvgDegree, c.N)
	}
	return nil
}

// Network is a generated unit disk graph together with its geometry.
type Network struct {
	// G is the connectivity graph.
	G *graph.Graph
	// Pos holds node positions.
	Pos []Point
	// Range is the transmitter range that produced exactly the target number
	// of links.
	Range float64
	// Attempts is the number of placements tried before a connected graph
	// was found.
	Attempts int
}

// Generate draws random placements from rng until the induced unit disk
// graph is connected, and returns the resulting network. A failure after
// MaxAttempts reports the configured seed and the largest connected-component
// size of the last attempt, so infeasible large-n configurations are
// diagnosable without rerunning.
func Generate(cfg Config, rng *rand.Rand) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := scratches.Get().(*scratch)
	defer s.release(cfg.N)
	var last *Network
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		net := s.place(cfg, rng)
		if net.G.Connected() {
			net.Attempts = attempt
			return net, nil
		}
		last = net
	}
	labels, count := last.G.Components()
	sizes := make([]int, count)
	for _, c := range labels {
		sizes[c]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	return nil, fmt.Errorf("geo: no connected network with n=%d d=%g after %d attempts "+
		"(seed %d; last attempt: %d components, largest %d/%d nodes, range %.3g)",
		cfg.N, cfg.AvgDegree, cfg.MaxAttempts, cfg.Seed, count, largest, cfg.N, last.Range)
}

// scratches recycles the scratch of small placements across Generate
// calls, so the paper's n <= 100 workloads, generated thousands of times per
// figure, allocate little more than the networks themselves. Short-lived
// scratch arrays from every call otherwise fragment the heap the cached
// networks live in.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// release returns s to scratches after a Generate call over n nodes, unless
// n is large enough to scan on several workers: such a scratch holds
// megabytes of links that a pool would keep alive for two more collections.
func (s *scratch) release(n int) {
	if n <= scanGrain {
		s.pos = nil
		scratches.Put(s)
	}
}

// pair is one candidate link of the cut bin: the endpoint pair (u < v) and
// its distance. Ids are 32-bit (Validate caps N), so a pair is 16 bytes.
type pair struct {
	d    float64
	u, v int32
}

// place builds one candidate network: uniform placement plus exact-link-count
// range adjustment over the grid index (see grid.go).
func (s *scratch) place(cfg Config, rng *rand.Rand) *Network {
	return s.connect(scatter(cfg, rng), cfg.Side, links(cfg.N, cfg.AvgDegree))
}

// scatter draws the uniform node positions of one placement.
func scatter(cfg Config, rng *rand.Rand) []Point {
	pos := make([]Point, cfg.N)
	for i := range pos {
		pos[i] = Point{X: rng.Float64() * cfg.Side, Y: rng.Float64() * cfg.Side}
	}
	return pos
}

// connect links the m closest pairs of pos and takes the m-th distance as
// the range. The links come out in no particular order, which FromEdges
// does not mind.
func (s *scratch) connect(pos []Point, side float64, m int) *Network {
	edges, r := s.closest(pos, side, m)
	// Endpoints are valid and distinct by construction; FromEdges cannot fail.
	g, _ := graph.FromEdges(len(pos), edges)
	return &Network{G: g, Pos: pos, Range: r}
}

// links returns the target link count round(n*d/2).
func links(n int, d float64) int {
	return int(math.Round(float64(n) * d / 2))
}
