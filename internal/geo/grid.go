package geo

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// The grid-indexed candidate generator. Materializing and sorting all
// n(n-1)/2 point pairs to find the m = round(n*d/2) closest ones is an
// O(n^2 log n) wall that makes n >= 5,000 infeasible. The grid gets the same
// m pairs from a guess-and-verify scheme of two scans over a cell index,
// neither of which stores a candidate pair:
//
//  1. Estimate the range r that yields m in-range pairs from the analytic
//     distance distribution of uniform points in a square (with the boundary
//     deficit term, so the estimate does not systematically undershoot near
//     the edges), padded by a safety factor.
//  2. Bucket the points into a uniform grid with cell size r. Any pair within
//     distance r then lies in the same or an 8-neighboring cell, so pairing
//     each cell's nodes among themselves and with the E, SW, S and SE cells
//     (the forward half of the 3x3 stencil) meets every pair with distance
//     <= r exactly once, in O(n + k) expected time, k being the in-range
//     count. Scan 1 counts those pairs into a histogram of distance bins. If
//     fewer than m are in range, the estimate was low: grow r and rescan
//     (each rescan is a full rebuild, so a bad estimate costs extra linear
//     passes, never correctness).
//  3. The bin of a pair is monotone in its distance, so the m closest pairs
//     are every pair in the bins below the cut bin, the one that holds the
//     m-th pair, plus the closest few of the cut bin. Scan 2 meets the same
//     pairs again and writes the former straight into an m-slot edge array
//     and the latter into a side list of exactly the cut bin's size.
//
// At least m pairs have distance <= r, so the m closest pairs are all in
// range, and selecting the few the cut bin contributes under the total order
// (distance, u, v) — a quickselect, no sort — yields the same edges and range
// as sorting all n(n-1)/2 pairs would. That is pinned against exactly that
// reference (placeNaive in grid_test.go) by TestPlaceGridMatchesNaive, a fuzz
// target (both with a lattice mode full of distance ties), and golden hashes
// over the paper's n/d grid and at n = 20k and 200k.
//
// Both scans split the cell rows into bands, one per worker (scanWorkers:
// small graphs scan inline on the caller). Each band's scan-1 histogram tells
// scan 2 where its edges and side pairs go, so the workers write disjoint
// slots of the two exactly sized arrays. One Generate call reuses the cell
// directory, the histograms and both arrays across rescans and rejected
// placements, and Generate calls on small graphs share them through a pool.

// rangeSafety pads the analytic range estimate so the first grid scan
// usually finds enough candidates; growFactor is the rescan growth.
const (
	rangeSafety = 1.2
	growFactor  = 1.4
	// binLoad is the mean number of in-range pairs per distance bin the
	// histogram is sized for, and maxBins caps its size. The cut bin then
	// holds about 1.7 * binLoad pairs (the pair density grows linearly with
	// distance, and the m-th pair sits near r / rangeSafety) until the cap
	// is reached, at about 2M in-range pairs.
	binLoad = 32
	maxBins = 1 << 16
	// sqMargin is the relative slack of the squared-distance prefilter: a
	// pair whose squared coordinate distance exceeds r^2 (1 + sqMargin) is
	// out of range whatever the few ulps of rounding in it and in
	// Point.Distance, so only pairs that pass it reach the exact test.
	sqMargin = 1e-9
)

var (
	// maxCellsPerSide bounds grid memory for very sparse ranges: with at
	// most 4096^2 cells the cell directory stays tens of MB even when the
	// estimated range is a vanishing fraction of the side. Only n in the
	// hundreds of millions reaches it; tests lower it to scan clamped cells.
	maxCellsPerSide = 4096
	// scanGrain is the fewest nodes a scan worker gets, so a paper-sized
	// graph scans on the caller alone. Tests lower it.
	scanGrain = 4096
)

// scanWorkers is how many bands Generate scans an n-node placement in: one
// per GOMAXPROCS, as long as each has scanGrain nodes, and at least one.
func scanWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/scanGrain))
}

// scratch is the memory one Generate call reuses across growth rescans and
// rejected placements, and the state of the scan in progress.
type scratch struct {
	cells cellGrid
	bands []band     // one per worker; len is the worker count
	edges [][2]int32 // scan 2's links: below the cut bin, then the side list's best
	side  []pair     // scan 2's pairs in the cut bin

	pos   []Point // the placement being scanned
	r, r2 float64 // the scan's range and its squared prefilter bound
	bins  binning
	cut   int // scan 2's cut bin; -1 during scan 1
}

// band is one worker's share of a scan: the cell rows [y0, y1), its scan-1
// histogram, and in scan 2 the next slots it writes in scratch.edges and
// scratch.side.
type band struct {
	y0, y1 int
	hist   []int
	e, s   int
}

// binning maps an in-range distance to its histogram bin. Both scans bin
// through it, so scan 2's cut agrees with scan 1's counts, and it is monotone
// in the distance, so every pair in a lower bin is closer than every pair in
// a higher one.
type binning struct {
	scale float64 // bins per unit distance
	last  int     // the highest bin
}

func (b binning) of(d float64) int { return min(int(d*b.scale), b.last) }

// newBinning sizes the histogram of a scan at range r over the expected
// in-range count k.
func newBinning(r, k float64) binning {
	bins := int(min(max(k/binLoad, 1), maxBins))
	scale := float64(bins) / r
	if !(scale < math.MaxFloat64) {
		// r is so small (a subnormal side) that bins/r overflows: one bin.
		return binning{scale: 0, last: 0}
	}
	return binning{scale: scale, last: bins - 1}
}

// cellGrid is a uniform spatial index: node ids grouped by square cell, laid
// out CSR-style (one nodes array, one start offset per cell) so building it
// is two counting passes and no per-cell allocations.
type cellGrid struct {
	cell  float64
	cols  int
	rows  int
	ids   []int32 // start and nodes, one allocation
	start []int32 // len cols*rows+1; nodes[start[c]:start[c+1]] live in cell c
	nodes []int32 // node ids grouped by cell, ascending within a cell
}

// reset buckets pos into cells of the given size covering a side x side
// area, reusing the directory's arrays. Cell size is clamped below so the
// directory never exceeds maxCellsPerSide per axis. A clamped cell is larger
// than the range, never smaller, so the 3x3 stencil still covers every
// in-range pair; clamping only puts more nodes in each cell.
func (g *cellGrid) reset(pos []Point, side, cell float64) {
	cell = max(cell, side/float64(maxCellsPerSide))
	cols := int(math.Ceil(side / cell))
	if cols < 1 {
		cols = 1
	}
	cells := cols * cols
	g.cell, g.cols, g.rows = cell, cols, cols
	g.ids = resize(g.ids, cells+1+len(pos))
	g.start, g.nodes = g.ids[:cells+1], g.ids[cells+1:]
	clear(g.start)
	for _, p := range pos {
		g.start[g.cellIndex(p)]++
	}
	// start[c] becomes the end of cell c; filling backwards then walks it
	// down to the cell's first slot, leaving each cell's ids ascending.
	for c := 1; c < cells; c++ {
		g.start[c] += g.start[c-1]
	}
	g.start[cells] = int32(len(pos))
	for i := len(pos) - 1; i >= 0; i-- {
		c := g.cellIndex(pos[i])
		g.start[c]--
		g.nodes[g.start[c]] = int32(i)
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short; the contents are not preserved.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
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

// closest returns the m closest pairs of pos as links, in no particular
// order, and the m-th distance as the range. The links alias s's edge array,
// which the next call overwrites.
func (s *scratch) closest(pos []Point, side float64, m int) ([][2]int32, float64) {
	if m <= 0 {
		return nil, 0
	}
	rmax := side * math.Sqrt2
	r := min(estimateRange(len(pos), side, m)*rangeSafety, rmax)
	for s.count(pos, side, r) < m && r < rmax {
		r = min(r*growFactor, rmax)
	}

	// The cut is the bin where the running count first reaches m; below
	// counts the pairs under it, all of which link.
	below, cut := 0, 0
	for ; ; cut++ {
		c := 0
		for i := range s.bands {
			c += s.bands[i].hist[cut]
		}
		if below+c >= m {
			break
		}
		below += c
	}
	// Each band writes its links and side pairs where the bands before it
	// end, and must end where the next begins.
	e, sp := 0, 0
	for i := range s.bands {
		b := &s.bands[i]
		b.e, b.s = e, sp
		e, sp = e+b.below(cut), sp+b.hist[cut]
	}
	s.edges = resize(s.edges, m)
	s.side = resize(s.side, sp)
	s.cut = cut
	s.scan()
	e, sp = 0, 0
	for i := range s.bands {
		b := &s.bands[i]
		e, sp = e+b.below(cut), sp+b.hist[cut]
		if b.e != e || b.s != sp {
			panic("geo: scan 2 met other pairs than scan 1")
		}
	}

	need := m - below
	selectPairs(s.side, need-1)
	for i, p := range s.side[:need] {
		s.edges[below+i] = [2]int32{p.u, p.v}
	}
	return s.edges, s.side[need-1].d
}

// count runs scan 1 over pos at range r, with the cell directory rebuilt
// for r, and returns how many pairs lie within the range.
func (s *scratch) count(pos []Point, side, r float64) int {
	n := len(pos)
	s.bands = resize(s.bands, scanWorkers(n))
	s.pos = pos
	s.cells.reset(pos, side, r)
	s.r = r
	s.r2 = r * r * (1 + sqMargin)
	if !(s.r2 >= 0x1p-1022) {
		// A subnormal bound has lost the precision the margin relies on.
		s.r2 = math.Inf(1)
	}
	s.bins = newBinning(r, expectedPairs(n, side, r))
	s.cut = -1
	rows := s.cells.rows
	for i := range s.bands {
		b := &s.bands[i]
		b.y0, b.y1 = rows*i/len(s.bands), rows*(i+1)/len(s.bands)
		b.hist = resize(b.hist, s.bins.last+1)
	}
	s.scan()
	total := 0
	for i := range s.bands {
		for _, c := range s.bands[i].hist {
			total += c
		}
	}
	return total
}

// below is how many of b's scan-1 pairs fall in the bins under cut.
func (b *band) below(cut int) int {
	n := 0
	for _, c := range b.hist[:cut] {
		n += c
	}
	return n
}

// scan runs one scan over every band, each band but the first on a
// goroutine of its own.
func (s *scratch) scan() {
	if len(s.bands) == 1 {
		s.scanBand(&s.bands[0])
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < len(s.bands); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.scanBand(&s.bands[i])
		}()
	}
	s.scanBand(&s.bands[0])
	wg.Wait()
}

// forward is the half of the 3x3 stencil a cell pairs with besides itself:
// E, SW, S and SE, as (dx, dy). The other half meets the same pairs from
// the neighbor's side.
var forward = [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// scanBand meets every pair whose first cell lies in b's rows: each cell's
// nodes among themselves, then with the nodes of its forward cells.
func (s *scratch) scanBand(b *band) {
	g := &s.cells
	if s.cut < 0 {
		clear(b.hist)
	}
	for cy := b.y0; cy < b.y1; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			c := cy*g.cols + cx
			lo, hi := g.start[c], g.start[c+1]
			if lo == hi {
				continue
			}
			ids := g.nodes[lo:hi]
			for i := range ids {
				s.pairs(b, ids[i:i+1], ids[i+1:])
			}
			for _, o := range forward {
				x, y := cx+o[0], cy+o[1]
				if x < 0 || x >= g.cols || y >= g.rows {
					continue
				}
				cc := y*g.cols + x
				lo, hi := g.start[cc], g.start[cc+1]
				s.pairs(b, ids, g.nodes[lo:hi])
			}
		}
	}
}

// pairs meets every pair of a node of a and a node of b. A pair within the
// range lands, by its distance bin, in bd's scan-1 histogram, or in scan 2
// in the edge array (below the cut), the side list (the cut bin) or nowhere
// (above it).
func (s *scratch) pairs(bd *band, a, b []int32) {
	pos, r, r2, bins, cut := s.pos, s.r, s.r2, s.bins, s.cut
	for i, u := range a {
		p := pos[u]
		for j, v := range b {
			q := pos[v]
			dx, dy := p.X-q.X, p.Y-q.Y
			if dx*dx+dy*dy > r2 {
				continue
			}
			d := p.Distance(q)
			if d > r {
				continue
			}
			k := bins.of(d)
			switch {
			case cut < 0:
				bd.hist[k]++
			case k < cut:
				s.edges[bd.e] = orderedPair(a[i], b[j])
				bd.e++
			case k == cut:
				e := orderedPair(a[i], b[j])
				s.side[bd.s] = pair{d: d, u: e[0], v: e[1]}
				bd.s++
			}
		}
	}
}

// orderedPair is the link {u, v} with its lower id first.
func orderedPair(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// expectedPairs is the expected number of pairs within distance r of n
// uniform points in a side x side square: C(n,2) * P(r).
func expectedPairs(n int, side, r float64) float64 {
	k := float64(n) * float64(n-1) / 2
	if r < side {
		k *= pairCDF(r, side)
	}
	return k
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
