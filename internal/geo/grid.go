package geo

import (
	"math"
	"math/bits"
	"slices"
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
// Selecting the m smallest of the k = O(m) candidates under the total order
// (distance, u, v) — a quickselect in O(k) expected time, no sort — therefore
// yields the same edges and range as sorting all n(n-1)/2 pairs would. That
// is pinned against exactly that reference (placeNaive in grid_test.go) by
// TestPlaceGridMatchesNaive, a fuzz target (both with a lattice mode full of
// distance ties), and the golden-hash test over the paper's n/d grid.
//
// The pair buffer is sized once from the expected candidate count, and one
// Generate call reuses it and the cell directory across rescans and
// rejected placements.

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

// scratch is the memory one Generate call reuses across growth rescans and
// rejected placements: the cell directory and the candidate-pair buffer.
type scratch struct {
	cells cellGrid
	pairs []pair
}

// cellGrid is a uniform spatial index: node ids grouped by square cell, laid
// out CSR-style (one nodes array, one start offset per cell) so building it
// is two counting passes and no per-cell allocations.
type cellGrid struct {
	cell  float64
	cols  int
	rows  int
	ci    []int32 // cell index per node
	start []int32 // len cols*rows+1; nodes[start[c]:start[c+1]] live in cell c
	nodes []int32 // node ids grouped by cell
}

// reset buckets pos into cells of the given size covering a side x side
// area, reusing the directory's arrays. Cell size is clamped below so the
// directory never exceeds maxCellsPerSide per axis; the scan radius is what
// guarantees coverage, the cell size only affects how many candidates each
// scan examines.
func (g *cellGrid) reset(pos []Point, side, cell float64) {
	cell = max(cell, side/maxCellsPerSide)
	cols := int(math.Ceil(side / cell))
	if cols < 1 {
		cols = 1
	}
	cells := cols * cols
	g.cell, g.cols, g.rows = cell, cols, cols
	g.ci = resize(g.ci, len(pos))
	g.nodes = resize(g.nodes, len(pos))
	g.start = resize(g.start, cells+1)
	clear(g.start)
	for i, p := range pos {
		c := g.cellIndex(p)
		g.ci[i] = int32(c)
		g.start[c]++
	}
	// start[c] becomes the end of cell c; filling backwards then walks it
	// down to the cell's first slot, leaving each cell's ids ascending.
	for c := 1; c < cells; c++ {
		g.start[c] += g.start[c-1]
	}
	g.start[cells] = int32(len(pos))
	for i := len(pos) - 1; i >= 0; i-- {
		c := g.ci[i]
		g.start[c]--
		g.nodes[g.start[c]] = int32(i)
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are not preserved.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
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
		cx, cy := int(c)%g.cols, int(c)/g.cols
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
					if int(v) <= u {
						continue
					}
					if d := pu.Distance(pos[v]); d <= r {
						dst = append(dst, pair{d: d, u: int32(u), v: v})
					}
				}
			}
		}
	}
	return dst
}

// candidatePairs returns a superset of the m closest pairs: every pair with
// distance <= r for the smallest tried r that yields at least m pairs. The
// returned slice is unsorted and aliases s's buffer, which the next call
// overwrites.
func (s *scratch) candidatePairs(pos []Point, side float64, m int) []pair {
	if m <= 0 {
		return nil
	}
	n := len(pos)
	rmax := side * math.Sqrt2
	r := min(estimateRange(n, side, m)*rangeSafety, rmax)
	if want := expectedPairs(n, side, r); cap(s.pairs) < want {
		s.pairs = make([]pair, 0, want)
	}
	for {
		s.cells.reset(pos, side, r)
		s.pairs = s.cells.pairsWithin(pos, r, s.pairs[:0])
		if len(s.pairs) >= m || r >= rmax {
			return s.pairs
		}
		r = min(r*growFactor, rmax)
	}
}

// expectedPairs sizes the candidate buffer for a scan at range r: the
// expected in-range pair count k = C(n,2) * P(r), plus a margin of
// 8k/sqrt(n) — four standard deviations if each of the n nodes added an
// independent 2k/n pairs, so it shrinks relative to k as n grows — capped
// at every pair.
func expectedPairs(n int, side, r float64) int {
	total := float64(n) * float64(n-1) / 2
	k := total
	if r < side {
		k *= pairCDF(r, side)
	}
	k += 4 * 2 * k / math.Sqrt(float64(n))
	return int(min(k, total)) + 1
}

// pairCDF is the distance distribution of two uniform points in a side x
// side square: P(dist <= r) = pi r^2/s^2 - 8 r^3/(3 s^3) + r^4/(2 s^4) for
// r <= s (the cubic term is the boundary deficit).
func pairCDF(r, side float64) float64 {
	t := r / side
	return math.Pi*t*t - 8*t*t*t/3 + t*t*t*t/2
}

// estimateRange inverts pairCDF: it bisects for the r whose expected
// in-range pair count C(n,2) * P(r) reaches m; when even r = s is not enough
// the caller's growth loop takes over from s.
func estimateRange(n int, side float64, m int) float64 {
	total := float64(n) * float64(n-1) / 2
	target := float64(m) / total
	if target >= pairCDF(side, side) {
		return side
	}
	lo, hi := 0.0, side
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if pairCDF(mid, side) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// pairLess is the total order candidates are selected by: distance, then
// the endpoint ids. Ids break distance ties, so the m smallest of any
// superset of the m closest pairs are the same m pairs.
func pairLess(a, b pair) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// selectPairs reorders pairs so that pairs[k] holds the pair a full sort by
// pairLess would put there, pairs[:k] the k smaller ones and pairs[k+1:] the
// larger ones, each side in no particular order. It is a median-of-three
// quickselect; after 2*log2(len) partition rounds it sorts what is left, so
// no input goes quadratic.
func selectPairs(pairs []pair, k int) {
	selectRounds(pairs, k, 2*bits.Len(uint(len(pairs))))
}

// selectRounds is selectPairs with an explicit budget of partition rounds.
func selectRounds(pairs []pair, k, rounds int) {
	lo, hi := 0, len(pairs)-1
	for ; hi-lo >= 16; rounds-- {
		if rounds == 0 {
			slices.SortFunc(pairs[lo:hi+1], func(a, b pair) int {
				switch {
				case pairLess(a, b):
					return -1
				case pairLess(b, a):
					return 1
				}
				return 0
			})
			return
		}
		p := partition(pairs, lo, hi)
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && pairLess(pairs[j], pairs[j-1]); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// partition splits a[lo:hi+1] (at least three pairs) around the median of
// its first, middle and last pair and returns the pivot's final index: every
// pair before it is smaller, every pair after it larger. The ordered three
// guard both scans, so neither needs a bounds check against lo or hi.
func partition(a []pair, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	if pairLess(a[mid], a[lo]) {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if pairLess(a[hi], a[lo]) {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if pairLess(a[hi], a[mid]) {
		a[hi], a[mid] = a[mid], a[hi]
	}
	a[mid], a[hi-1] = a[hi-1], a[mid]
	pivot := a[hi-1]
	i, j := lo, hi-1
	for {
		for i++; pairLess(a[i], pivot); i++ {
		}
		for j--; pairLess(pivot, a[j]); j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}
