package geo

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"adhocbcast/internal/graph"
)

// placeNaive is the reference placement the grid index is pinned against: the
// same positions, every one of the n(n-1)/2 pairs as a candidate, fully
// sorted, and the first m linked. It shares only scatter and links with the
// production path, not the selection.
func placeNaive(cfg Config, rng *rand.Rand) *Network {
	net, _ := connectNaive(scatter(cfg, rng), links(cfg.N, cfg.AvgDegree))
	return net
}

// connectNaive sorts all pairs of pos by (distance, u, v) and links the
// first m. tied reports whether the (m+1)-th pair is exactly as far as the
// m-th, that is, whether the id tie-break chose among pairs at the range.
func connectNaive(pos []Point, m int) (net *Network, tied bool) {
	pairs := make([]pair, 0, len(pos)*(len(pos)-1)/2)
	for u := range pos {
		for v := u + 1; v < len(pos); v++ {
			pairs = append(pairs, pair{d: pos[u].Distance(pos[v]), u: int32(u), v: int32(v)})
		}
	}
	sortPairs(pairs)
	edges := make([][2]int, m)
	for i, p := range pairs[:m] {
		edges[i] = [2]int{int(p.u), int(p.v)}
	}
	g, err := graph.FromEdges(len(pos), edges)
	if err != nil {
		panic(err)
	}
	net = &Network{G: g, Pos: pos}
	if m > 0 {
		net.Range = pairs[m-1].d
		tied = m < len(pairs) && pairs[m].d == net.Range
	}
	return net, tied
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

// latticeSteps is the lattice resolution of the tie tests: coordinates
// snap to multiples of side/64, so many pairs share each distance.
const latticeSteps = 64

// compareLattice snaps one placement to the lattice and checks the grid
// path (scratch.connect) against connectNaive on it, edge for edge and with
// the range equal bit for bit. It reports whether the m-th distance was
// tied, so callers can check the tie-break was exercised, and the grid's
// scratch, which holds its last scan.
func compareLattice(t *testing.T, cfg Config, seed int64) (tied bool, s *scratch) {
	t.Helper()
	pos := scatter(cfg, rand.New(rand.NewSource(seed)))
	step := cfg.Side / latticeSteps
	for i, p := range pos {
		pos[i] = Point{X: math.Round(p.X/step) * step, Y: math.Round(p.Y/step) * step}
	}
	m := links(cfg.N, cfg.AvgDegree)
	naive, tied := connectNaive(pos, m)
	s = new(scratch)
	comparePlacements(t, naive, s.connect(pos, cfg.Side, m))
	return tied, s
}

// splitScans lowers scanGrain to one node and sets GOMAXPROCS to workers
// until t ends, so Generate scans a placement of n >= workers nodes in
// workers bands of cell rows (some of them empty when the grid has fewer
// rows).
func splitScans(t testing.TB, workers int) {
	oldGrain, oldProcs := scanGrain, runtime.GOMAXPROCS(workers)
	scanGrain = 1
	t.Cleanup(func() {
		scanGrain = oldGrain
		runtime.GOMAXPROCS(oldProcs)
	})
}

// clampCells returns maxCellsPerSide and restores it when t ends, so a test
// may lower it per configuration with cellsForScale.
func clampCells(t testing.TB) int {
	old := maxCellsPerSide
	t.Cleanup(func() { maxCellsPerSide = old })
	return old
}

// cellsForScale is the maxCellsPerSide that clamps the cells of cfg's first
// scan to at least scale times its estimated range, as the production clamp
// does for n in the hundreds of millions.
func cellsForScale(cfg Config, scale int) int {
	r := estimateRange(cfg.N, cfg.Side, links(cfg.N, cfg.AvgDegree)) * rangeSafety
	return max(1, int(cfg.Side/(float64(scale)*r)))
}

// generateNaive is Generate's rejection sampling over placeNaive.
func generateNaive(t *testing.T, cfg Config, rng *rand.Rand) *Network {
	t.Helper()
	cfg = cfg.withDefaults()
	for attempt := 1; attempt <= cfg.MaxAttempts; attempt++ {
		if net := placeNaive(cfg, rng); net.G.Connected() {
			net.Attempts = attempt
			return net
		}
	}
	t.Fatalf("naive n=%d d=%g: no connected network", cfg.N, cfg.AvgDegree)
	return nil
}

// comparePlacements asserts that the grid-indexed and naive generators built
// bit-identical networks from the same placement.
func comparePlacements(t *testing.T, naive, grid *Network) {
	t.Helper()
	if naive.Range != grid.Range {
		t.Fatalf("range differs: naive %v, grid %v", naive.Range, grid.Range)
	}
	if naive.G.M() != grid.G.M() {
		t.Fatalf("link count differs: naive %d, grid %d", naive.G.M(), grid.G.M())
	}
	ne, ge := naive.G.Edges(), grid.G.Edges()
	for i := range ne {
		if ne[i] != ge[i] {
			t.Fatalf("edge %d differs: naive %v, grid %v", i, ne[i], ge[i])
		}
	}
	for i := range naive.Pos {
		if naive.Pos[i] != grid.Pos[i] {
			t.Fatalf("position %d differs: naive %v, grid %v", i, naive.Pos[i], grid.Pos[i])
		}
	}
}

// TestPlaceGridMatchesNaive checks the grid-indexed generator edge-for-edge
// against the reference full-sort path across a seed matrix, scanned in 1,
// 2, 3 and 7 bands and, in 2 bands, with cells clamped to at least 2 and 3
// times the range. Infeasible (n, d) combinations (d impossible for n) are
// skipped. The comparison is at the placement level, so disconnected draws
// are compared too — equivalence must hold for every placement, not just the
// accepted ones. Lattice mode repeats each placement snapped to the side/64
// lattice, where pairs tie at the m-th distance and the (u, v) order decides
// which of them link.
func TestPlaceGridMatchesNaive(t *testing.T) {
	for _, c := range []struct{ workers, scale int }{{1, 0}, {2, 0}, {3, 0}, {7, 0}, {2, 2}, {2, 3}} {
		t.Run(fmt.Sprintf("workers=%d/clamp=%d", c.workers, c.scale), func(t *testing.T) {
			splitScans(t, c.workers)
			cells := clampCells(t)
			ties, clamped := 0, 0
			for _, n := range []int{20, 100, 500} {
				for _, d := range []float64{6, 18, 30} {
					cfg := Config{N: n, AvgDegree: d}
					if err := cfg.Validate(); err != nil {
						continue
					}
					cfg = cfg.withDefaults()
					maxCellsPerSide = cells
					if c.scale > 0 {
						maxCellsPerSide = cellsForScale(cfg, c.scale)
					}
					for seed := int64(1); seed <= 3; seed++ {
						naive := placeNaive(cfg, rand.New(rand.NewSource(seed)))
						comparePlacements(t, naive, new(scratch).place(cfg, rand.New(rand.NewSource(seed))))
						tied, s := compareLattice(t, cfg, seed)
						if tied {
							ties++
						}
						if s.cells.cell >= float64(c.scale)*s.r {
							clamped++
						}
					}
				}
			}
			if ties == 0 {
				t.Fatal("no lattice placement tied at the m-th distance; the tie-break went untested")
			}
			if c.scale > 0 {
				t.Logf("%d lattice placements scanned cells of >= %d times the range", clamped, c.scale)
				if clamped == 0 {
					t.Fatalf("no placement scanned cells of %d times the range", c.scale)
				}
			}
		})
	}
}

// TestScanKeepsPairsAtTheRange scans placements at a range equal to one of
// their pair distances, in 1 and 3 bands, on the paper's side and on one so
// small that the squared range is subnormal: the squared-distance prefilter
// must pass every pair Point.Distance puts within the range, whatever the
// rounding of the squares, so scan 1 counts what a brute-force count does.
func TestScanKeepsPairsAtTheRange(t *testing.T) {
	for _, c := range []struct {
		workers int
		side    float64
	}{{1, 100}, {3, 100}, {1, 1e-160}} {
		t.Run(fmt.Sprintf("workers=%d/side=%g", c.workers, c.side), func(t *testing.T) {
			splitScans(t, c.workers)
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 300; trial++ {
				pos := scatter(Config{N: 30, Side: c.side}, rng)
				r := pos[0].Distance(pos[1+trial%29])
				want := 0
				for u := range pos {
					for v := u + 1; v < len(pos); v++ {
						if pos[u].Distance(pos[v]) <= r {
							want++
						}
					}
				}
				if got := new(scratch).count(pos, c.side, r); got != want {
					t.Fatalf("trial %d: scan 1 counted %d pairs within %v, want %d", trial, got, r, want)
				}
			}
		})
	}
}

// TestPlaceGridMatchesNaiveExtremeSides checks the grid against the
// reference on sides so small that the squared range is subnormal (1e-160)
// or that bins per unit distance overflow (1e-310), and so large that
// squares overflow (1e300): the scan must fall back to the exact distance
// test and to one bin rather than drop, misbin or index past pairs.
func TestPlaceGridMatchesNaiveExtremeSides(t *testing.T) {
	for _, side := range []float64{1e-310, 1e-160, 1e300} {
		cfg := Config{N: 60, AvgDegree: 8, Side: side}.withDefaults()
		for seed := int64(1); seed <= 3; seed++ {
			naive := placeNaive(cfg, rand.New(rand.NewSource(seed)))
			comparePlacements(t, naive, new(scratch).place(cfg, rand.New(rand.NewSource(seed))))
		}
	}
}

// TestGenerateGridMatchesNaive checks the full Generate pipeline (rejection
// sampling included) across both paths, scanned in 1, 2, 3 and 7 bands:
// identical placements are accepted or rejected identically, so Attempts
// must agree too.
func TestGenerateGridMatchesNaive(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			splitScans(t, workers)
			for _, tt := range []struct {
				n int
				d float64
			}{{30, 6}, {100, 6}, {100, 18}, {200, 10}} {
				naive := generateNaive(t, Config{N: tt.n, AvgDegree: tt.d}, rand.New(rand.NewSource(11)))
				grid, err := Generate(Config{N: tt.n, AvgDegree: tt.d},
					rand.New(rand.NewSource(11)))
				if err != nil {
					t.Fatalf("grid n=%d d=%g: %v", tt.n, tt.d, err)
				}
				if naive.Attempts != grid.Attempts {
					t.Fatalf("n=%d d=%g: attempts differ: naive %d, grid %d",
						tt.n, tt.d, naive.Attempts, grid.Attempts)
				}
				comparePlacements(t, naive, grid)
			}
		})
	}
}

// networkHash digests a generated network: every position bit pattern, the
// full edge list, the range bit pattern, and the attempt count.
func networkHash(net *Network) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:8])
	}
	for _, p := range net.Pos {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	for _, e := range net.G.Edges() {
		put(uint64(e[0])<<32 | uint64(e[1]))
	}
	put(math.Float64bits(net.Range))
	put(uint64(net.Attempts))
	return h.Sum64()
}

// TestGenerateGolden pins Generate's output for the paper's n/d evaluation
// grid against hashes recorded from the pre-grid full-sort generator. Any
// change to placement order, candidate selection, tie-breaking, or the
// rejection loop shows up here as a hash mismatch. Seeds are 1000*n + d.
//
// Note these hashes cover the *byte content* of the network (positions,
// edges, range, attempts) but not private representation details, so a
// storage refactor that preserves the generated networks keeps them green.
func TestGenerateGolden(t *testing.T) {
	golden := []struct {
		n, d int
		hash uint64
	}{
		{n: 20, d: 6, hash: 0x61b572967c5ca913},
		{n: 30, d: 6, hash: 0xf60de8b64a06038e},
		{n: 40, d: 6, hash: 0xd485ec7b520a28a1},
		{n: 50, d: 6, hash: 0xee15d3240ad5266c},
		{n: 60, d: 6, hash: 0xfb68bbeb8c31a46c},
		{n: 70, d: 6, hash: 0x8e4688a48b1a04e4},
		{n: 80, d: 6, hash: 0x08763b3e5641d793},
		{n: 90, d: 6, hash: 0x9e33f152cab3662b},
		{n: 100, d: 6, hash: 0x620a955030ea2c08},
		{n: 20, d: 18, hash: 0x09b2a73f46b9856f},
		{n: 30, d: 18, hash: 0x0585fa0c8860a310},
		{n: 40, d: 18, hash: 0x1ecb9e921650003a},
		{n: 50, d: 18, hash: 0x8dae7ea318bb0c91},
		{n: 60, d: 18, hash: 0x34188b62f0bdf7f7},
		{n: 70, d: 18, hash: 0x6bf927def3b98c30},
		{n: 80, d: 18, hash: 0x23af13112938f23e},
		{n: 90, d: 18, hash: 0x10a0bb53241c4fba},
		{n: 100, d: 18, hash: 0x5fb5d2bf65f7648f},
	}
	for _, g := range golden {
		net, err := Generate(Config{N: g.n, AvgDegree: float64(g.d)},
			rand.New(rand.NewSource(int64(1000*g.n+g.d))))
		if err != nil {
			t.Fatalf("n=%d d=%d: %v", g.n, g.d, err)
		}
		if got := networkHash(net); got != g.hash {
			t.Errorf("n=%d d=%d: hash 0x%016x, want 0x%016x (generator output changed)",
				g.n, g.d, got, g.hash)
		}
	}
}

// TestGenerateFailureDiagnostics checks the MaxAttempts-exhausted error names
// the seed and the largest connected component of the last attempt.
func TestGenerateFailureDiagnostics(t *testing.T) {
	// Average degree 2 on 60 nodes essentially never yields a connected
	// graph, so a tiny attempt budget must fail.
	cfg := Config{N: 60, AvgDegree: 2, MaxAttempts: 3, Seed: 99}
	_, err := Generate(cfg, rand.New(rand.NewSource(99)))
	if err == nil {
		t.Skip("every sparse placement happened to be connected; nothing to assert")
	}
	msg := err.Error()
	for _, want := range []string{"seed 99", "largest", "components", "after 3 attempts"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestEstimateRange sanity-checks the analytic range estimate: inverting the
// CDF and re-evaluating it must land on the target probability, and the
// estimate must be monotone in the link target.
func TestEstimateRange(t *testing.T) {
	prev := 0.0
	for _, m := range []int{10, 100, 1000, 4000} {
		r := estimateRange(100, 100, m)
		if r <= prev {
			t.Fatalf("estimateRange not monotone: m=%d gave %v after %v", m, r, prev)
		}
		prev = r
	}
	// Saturated target: more links than the in-side CDF covers falls back to
	// the side length (the growth loop takes over from there).
	if r := estimateRange(10, 100, 45); r != 100 {
		t.Fatalf("saturated estimate = %v, want side 100", r)
	}
}

// FuzzPlaceGridMatchesNaive fuzzes the equivalence of the two generators over
// placement seed, size, degree and scan worker count (1-8), on uniform
// positions or (lattice) on positions snapped to the side/64 lattice, where
// distances tie.
func FuzzPlaceGridMatchesNaive(f *testing.F) {
	f.Add(int64(1), uint16(25), uint16(6), false, uint8(0))
	f.Add(int64(42), uint16(100), uint16(18), false, uint8(1))
	f.Add(int64(7), uint16(60), uint16(30), false, uint8(2))
	f.Add(int64(-3), uint16(2), uint16(1), false, uint8(6))
	f.Add(int64(1), uint16(25), uint16(6), true, uint8(0))
	f.Add(int64(42), uint16(100), uint16(18), true, uint8(2))
	f.Add(int64(7), uint16(299), uint16(30), true, uint8(6))
	f.Add(int64(-3), uint16(2), uint16(1), true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, d uint16, lattice bool, workers uint8) {
		cfg := Config{N: int(n%300) + 2, AvgDegree: float64(d%40) + 0.5}
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		cfg = cfg.withDefaults()
		splitScans(t, int(workers%8)+1)
		if lattice {
			compareLattice(t, cfg, seed)
			return
		}
		naive := placeNaive(cfg, rand.New(rand.NewSource(seed)))
		grid := new(scratch).place(cfg, rand.New(rand.NewSource(seed)))
		comparePlacements(t, naive, grid)
	})
}

// TestSelectPairs checks selectPairs' contract against sortPairs for every
// k on inputs that stress a quickselect: random, sorted, reversed, organ
// pipe, and all distances equal (only the ids order them). Each runs with
// the default partition budget and with budgets of 0-2 rounds, which hand
// over to the fallback sort.
func TestSelectPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func(i, n int) float64{
		"random":   func(i, n int) float64 { return rng.Float64() },
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
		"organ":    func(i, n int) float64 { return float64(min(i, n-i)) },
		"equal":    func(i, n int) float64 { return 1 },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 3, 17, 100, 333} {
			in := make([]pair, n)
			for i := range in {
				// Ids in a scrambled order, so "equal" is not presorted.
				in[i] = pair{d: shape(i, n), u: int32(i * 7919 % n), v: int32(n + i)}
			}
			want := append([]pair(nil), in...)
			sortPairs(want)
			for k := 0; k < n; k++ {
				for rounds := -1; rounds <= 2; rounds++ {
					got := append([]pair(nil), in...)
					if rounds < 0 {
						selectPairs(got, k)
					} else {
						selectRounds(got, k, rounds)
					}
					if got[k] != want[k] {
						t.Fatalf("%s n=%d k=%d rounds=%d: pairs[k] = %v, want %v",
							name, n, k, rounds, got[k], want[k])
					}
					for i := range got {
						if i < k && !pairLess(got[i], got[k]) || i > k && !pairLess(got[k], got[i]) {
							t.Fatalf("%s n=%d k=%d rounds=%d: pair %d = %v on the wrong side of %v",
								name, n, k, rounds, i, got[i], got[k])
						}
					}
				}
			}
		}
	}
}

// TestGenerateGoldenLarge pins Generate's output far beyond the paper's
// n <= 100, where the scan splits across cores and the boundary bin holds
// many pairs: n = 20,000 and 200,000 at d = 18, seed 42. The hashes were
// recorded from the sequential single-pass generator that buffered every
// candidate pair.
func TestGenerateGoldenLarge(t *testing.T) {
	for _, g := range []struct {
		n    int
		hash uint64
	}{
		{n: 20000, hash: 0x583bee1a7fbcf900},
		{n: 200000, hash: 0x9c20181e124cc2b5},
	} {
		net, err := Generate(Config{N: g.n, AvgDegree: 18, Seed: 42}, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatalf("n=%d: %v", g.n, err)
		}
		if got := networkHash(net); got != g.hash {
			t.Errorf("n=%d d=18: hash 0x%016x, want 0x%016x (generator output changed)", g.n, got, g.hash)
		}
	}
}

// BenchmarkGenerate times Generate at the paper's n = 100 (d = 6 needs
// several placements, d = 18 usually one) and at 20k and 200k, d = 18, one
// fixed seed per size so every iteration does the same work.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		n int
		d float64
	}{{100, 6}, {100, 18}, {20000, 18}, {200000, 18}} {
		b.Run(fmt.Sprintf("n=%d/d=%g", c.n, c.d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(Config{N: c.n, AvgDegree: c.d}, rand.New(rand.NewSource(42))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
