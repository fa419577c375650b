package fault

import (
	"fmt"
	"math"
	"math/rand"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/stream"
)

// Params describes a randomized fault workload. All fields default to zero
// (no faults); fractions are of the node or link population.
type Params struct {
	// CrashFraction is the fraction of nodes that fail-stop at a uniform
	// random time in (0, CrashWindow]. Crash times are strictly positive so
	// the source always gets its time-0 transmission out.
	CrashFraction float64
	// CrashWindow bounds the crash times (default 10 transmission slots,
	// i.e. crashes land mid-broadcast rather than after it).
	CrashWindow float64
	// ChurnFraction is the fraction of nodes that suffer one transient down
	// interval (a reboot) starting uniformly in [0, ChurnWindow).
	ChurnFraction float64
	// ChurnWindow bounds the churn start times (default 10).
	ChurnWindow float64
	// ChurnDuration is the length of each transient node outage (default 5).
	ChurnDuration float64
	// LinkFraction is the fraction of links that suffer one transient outage
	// starting uniformly in [0, LinkWindow).
	LinkFraction float64
	// LinkWindow bounds the link outage start times (default 10).
	LinkWindow float64
	// LinkDuration is the length of each link outage (default 5).
	LinkDuration float64
	// Protect lists node ids exempt from crashes and churn (typically the
	// broadcast source).
	Protect []int
}

func (p Params) withDefaults() Params {
	if p.CrashWindow <= 0 {
		p.CrashWindow = 10
	}
	if p.ChurnWindow <= 0 {
		p.ChurnWindow = 10
	}
	if p.ChurnDuration <= 0 {
		p.ChurnDuration = 5
	}
	if p.LinkWindow <= 0 {
		p.LinkWindow = 10
	}
	if p.LinkDuration <= 0 {
		p.LinkDuration = 5
	}
	return p
}

func (p Params) validate(n int) error {
	for _, f := range []struct {
		name string
		val  float64
	}{
		{"CrashFraction", p.CrashFraction},
		{"ChurnFraction", p.ChurnFraction},
		{"LinkFraction", p.LinkFraction},
	} {
		if f.val < 0 || f.val > 1 || math.IsNaN(f.val) {
			return fmt.Errorf("fault: %s %v outside [0,1]", f.name, f.val)
		}
	}
	for _, v := range p.Protect {
		if v < 0 || v >= n {
			return fmt.Errorf("fault: protected node %d out of range [0,%d)", v, n)
		}
	}
	return nil
}

// NewPlan draws a fault plan for graph g from Params. It is a pure function
// of (g, p, seed): the same inputs always yield an identical plan. The rng
// stream is private to the plan, so generating a plan never perturbs any
// other random draw in an experiment.
func NewPlan(g *graph.Graph, p Params, seed int64) (*Plan, error) {
	n := g.N()
	if err := p.validate(n); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(stream.Seed(seed, "fault.plan")))
	plan := NewEmptyPlan(n)

	protected := make([]bool, n)
	for _, v := range p.Protect {
		protected[v] = true
	}
	eligible := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !protected[v] {
			eligible = append(eligible, v)
		}
	}

	// Crashes: a random subset of the eligible nodes, crash times in
	// (0, CrashWindow]. The count is rounded from the fraction of the full
	// population so CrashFraction means the same thing at every size.
	crashes := pick(rng, eligible, p.CrashFraction, n)
	for _, v := range crashes {
		at := p.CrashWindow * (1 - rng.Float64()) // (0, CrashWindow]
		plan.AddNodeDown(v, Interval{From: at, To: Forever})
	}

	// Churn: transient outages on eligible nodes that do not also crash
	// (a crashed node's schedule stays a single clean interval).
	crashed := make(map[int]bool, len(crashes))
	for _, v := range crashes {
		crashed[v] = true
	}
	churnPool := make([]int, 0, len(eligible))
	for _, v := range eligible {
		if !crashed[v] {
			churnPool = append(churnPool, v)
		}
	}
	for _, v := range pick(rng, churnPool, p.ChurnFraction, n) {
		from := rng.Float64() * p.ChurnWindow
		plan.AddNodeDown(v, Interval{From: from, To: from + p.ChurnDuration})
	}

	// Link outages over the edge list (Edges returns a deterministic order).
	if p.LinkFraction > 0 {
		edges := g.Edges()
		for _, e := range pickEdges(rng, edges, p.LinkFraction) {
			from := rng.Float64() * p.LinkWindow
			plan.AddLinkDown(e[0], e[1], Interval{From: from, To: from + p.LinkDuration})
		}
	}
	return plan, nil
}

// pick selects round(frac*total) members of pool (capped at len(pool)) via a
// deterministic partial shuffle.
func pick(rng *rand.Rand, pool []int, frac float64, total int) []int {
	k := int(math.Round(frac * float64(total)))
	if k > len(pool) {
		k = len(pool)
	}
	if k <= 0 {
		return nil
	}
	perm := rng.Perm(len(pool))
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = pool[perm[i]]
	}
	return out
}

func pickEdges(rng *rand.Rand, edges [][2]int, frac float64) [][2]int {
	k := int(math.Round(frac * float64(len(edges))))
	if k > len(edges) {
		k = len(edges)
	}
	if k <= 0 {
		return nil
	}
	perm := rng.Perm(len(edges))
	out := make([][2]int, k)
	for i := 0; i < k; i++ {
		out[i] = edges[perm[i]]
	}
	return out
}
