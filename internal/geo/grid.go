package geo

import (
	"math"
	"sort"
)

// The grid-indexed candidate generator. Materializing and sorting all
// n(n-1)/2 point pairs to find the m = round(n*d/2) closest ones is an
// O(n^2 log n) wall that makes n >= 5,000 infeasible. The grid gets the same
// m pairs from a guess-and-verify scheme:
//
//  1. Estimate the range r that yields m in-range pairs from the analytic
//     distance distribution of uniform points in a square (with the boundary
//     deficit term, so the estimate does not systematically undershoot near
//     the edges), padded by a safety factor.
//  2. Bucket the points into a uniform grid with cell size r. Any pair within
//     distance r then lies in the same or an 8-neighboring cell, so scanning
//     each node's 3x3 cell neighborhood enumerates exactly the pairs with
//     distance <= r in O(n + k) expected time, k being the candidate count.
//  3. If fewer than m pairs are in range, the estimate was low: grow r and
//     rescan (each rescan is a full rebuild, so a bad estimate costs extra
//     linear passes, never correctness).
//
// Once the scan yields k >= m candidates, the m globally closest pairs are
// all among them (at least m pairs have distance <= r, so the m smallest do).
// Sorting the k = O(m) candidates by (distance, u, v) therefore selects the
// same edges and range as sorting all n(n-1)/2 pairs would — pinned against
// exactly that reference (placeNaive in grid_test.go) by
// TestPlaceGridMatchesNaive, a fuzz target, and the golden-hash test over the
// paper's n/d grid.

// rangeSafety pads the analytic range estimate so the first grid scan
// usually finds enough candidates; growFactor is the rescan growth.
const (
	rangeSafety = 1.2
	growFactor  = 1.4
	// maxCellsPerSide bounds grid memory for very sparse ranges: with at
	// most 4096^2 cells the cell directory stays tens of MB even when the
	// estimated range is a vanishing fraction of the side.
	maxCellsPerSide = 4096
)

// cellGrid is a uniform spatial index: node ids grouped by square cell, laid
// out CSR-style (one nodes array, one start offset per cell) so building it
// is two counting passes and no per-cell allocations.
type cellGrid struct {
	cell  float64
	cols  int
	rows  int
	ci    []int // cell index per node
	start []int // len cols*rows+1; nodes[start[c]:start[c+1]] live in cell c
	nodes []int // node ids grouped by cell
}

// newCellGrid buckets pos into cells of the given size covering a side x side
// area. Cell size is clamped below so the directory never exceeds
// maxCellsPerSide per axis; the scan radius is what guarantees coverage, the
// cell size only affects how many candidates each scan examines.
func newCellGrid(pos []Point, side, cell float64) *cellGrid {
	if min := side / maxCellsPerSide; cell < min {
		cell = min
	}
	cols := int(math.Ceil(side / cell))
	if cols < 1 {
		cols = 1
	}
	g := &cellGrid{
		cell:  cell,
		cols:  cols,
		rows:  cols,
		ci:    make([]int, len(pos)),
		start: make([]int, cols*cols+1),
		nodes: make([]int, len(pos)),
	}
	for i, p := range pos {
		g.ci[i] = g.cellIndex(p)
	}
	for _, c := range g.ci {
		g.start[c+1]++
	}
	for c := 0; c < len(g.start)-1; c++ {
		g.start[c+1] += g.start[c]
	}
	fill := append([]int(nil), g.start[:len(g.start)-1]...)
	for i, c := range g.ci {
		g.nodes[fill[c]] = i
		fill[c]++
	}
	return g
}

// cellIndex maps a point to its cell, clamping the boundary so points at
// (or beyond, through float rounding) the area edge land in the last cell.
func (g *cellGrid) cellIndex(p Point) int {
	cx := int(p.X / g.cell)
	cy := int(p.Y / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// pairsWithin appends to dst every pair {u, v}, u < v, with distance <= r,
// visiting each node's 3x3 cell neighborhood. reach is the cell radius the
// scan must cover: 1 when the cell size is >= r, more when the cell size was
// clamped below r.
func (g *cellGrid) pairsWithin(pos []Point, r float64, dst []pair) []pair {
	reach := 1
	if g.cell < r {
		reach = int(math.Ceil(r / g.cell))
	}
	for u, c := range g.ci {
		cx, cy := c%g.cols, c/g.cols
		pu := pos[u]
		for dy := -reach; dy <= reach; dy++ {
			y := cy + dy
			if y < 0 || y >= g.rows {
				continue
			}
			for dx := -reach; dx <= reach; dx++ {
				x := cx + dx
				if x < 0 || x >= g.cols {
					continue
				}
				cc := y*g.cols + x
				for _, v := range g.nodes[g.start[cc]:g.start[cc+1]] {
					if v <= u {
						continue
					}
					if d := pu.Distance(pos[v]); d <= r {
						dst = append(dst, pair{d: d, u: u, v: v})
					}
				}
			}
		}
	}
	return dst
}

// candidatePairs returns a superset of the m closest pairs: every pair with
// distance <= r for the smallest tried r that yields at least m pairs. The
// returned slice is unsorted.
func candidatePairs(pos []Point, side float64, m int) []pair {
	if m <= 0 {
		return nil
	}
	n := len(pos)
	rmax := side * math.Sqrt2
	r := estimateRange(n, side, m) * rangeSafety
	if r > rmax {
		r = rmax
	}
	var pairs []pair
	for {
		g := newCellGrid(pos, side, r)
		pairs = g.pairsWithin(pos, r, pairs[:0])
		if len(pairs) >= m || r >= rmax {
			return pairs
		}
		r *= growFactor
		if r > rmax {
			r = rmax
		}
	}
}

// estimateRange inverts the distance distribution of two uniform points in a
// side x side square: P(dist <= r) = pi r^2/s^2 - 8 r^3/(3 s^3) + r^4/(2 s^4)
// for r <= s (the cubic term is the boundary deficit). It bisects for the r
// whose expected in-range pair count C(n,2) * P(r) reaches m; when even r = s
// is not enough the caller's growth loop takes over from s.
func estimateRange(n int, side float64, m int) float64 {
	total := float64(n) * float64(n-1) / 2
	target := float64(m) / total
	cdf := func(r float64) float64 {
		t := r / side
		return math.Pi*t*t - 8*t*t*t/3 + t*t*t*t/2
	}
	if target >= cdf(side) {
		return side
	}
	lo, hi := 0.0, side
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// sortPairs orders candidate pairs by (distance, u, v), a total order: the
// first m of any superset of the m closest pairs are the same m pairs.
func sortPairs(pairs []pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d < pairs[j].d
		}
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})
}
