package geo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "ok", cfg: Config{N: 20, AvgDegree: 6}},
		{name: "too few nodes", cfg: Config{N: 1, AvgDegree: 2}, wantErr: true},
		{name: "zero degree", cfg: Config{N: 10, AvgDegree: 0}, wantErr: true},
		{name: "negative degree", cfg: Config{N: 10, AvgDegree: -1}, wantErr: true},
		{name: "impossible degree", cfg: Config{N: 10, AvgDegree: 40}, wantErr: true},
		{name: "complete graph degree", cfg: Config{N: 10, AvgDegree: 9}},
		{name: "NaN degree", cfg: Config{N: 20, AvgDegree: math.NaN()}, wantErr: true},
		{name: "infinite degree", cfg: Config{N: 20, AvgDegree: math.Inf(1)}, wantErr: true},
		{name: "overflowing degree", cfg: Config{N: 20, AvgDegree: 1e300}, wantErr: true},
		{name: "NaN side", cfg: Config{N: 20, AvgDegree: 4, Side: math.NaN()}, wantErr: true},
		{name: "infinite side", cfg: Config{N: 20, AvgDegree: 4, Side: math.Inf(1)}, wantErr: true},
		{name: "too many nodes", cfg: Config{N: math.MaxInt32 + 1, AvgDegree: 4}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGenerateExactLinkCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tt := range []struct {
		n int
		d float64
	}{
		{n: 20, d: 6}, {n: 50, d: 6}, {n: 100, d: 6}, {n: 50, d: 18}, {n: 100, d: 18},
	} {
		net, err := Generate(Config{N: tt.n, AvgDegree: tt.d}, rng)
		if err != nil {
			t.Fatalf("Generate(n=%d d=%g): %v", tt.n, tt.d, err)
		}
		want := int(math.Round(float64(tt.n) * tt.d / 2))
		if net.G.M() != want {
			t.Fatalf("n=%d d=%g: links = %d, want exactly %d", tt.n, tt.d, net.G.M(), want)
		}
		if !net.G.Connected() {
			t.Fatalf("n=%d d=%g: generated network not connected", tt.n, tt.d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{N: 40, AvgDegree: 6}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{N: 40, AvgDegree: 6}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if a.G.M() != b.G.M() || a.Range != b.Range || a.Attempts != b.Attempts {
		t.Fatal("same seed produced different networks")
	}
	ae, be := a.G.Edges(), b.G.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("position %d differs", i)
		}
	}
}

func TestGeneratePositionsInArea(t *testing.T) {
	net, err := Generate(Config{N: 30, AvgDegree: 5, Side: 50}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Pos {
		if p.X < 0 || p.X >= 50 || p.Y < 0 || p.Y >= 50 {
			t.Fatalf("node %d at %v outside 50x50 area", i, p)
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{N: 1, AvgDegree: 3}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("Generate accepted an invalid config")
	}
}

func TestGenerateGivesUp(t *testing.T) {
	// Average degree 2 on 50 nodes almost never yields a connected graph;
	// with one attempt allowed, Generate should report failure rather than
	// loop forever.
	cfg := Config{N: 50, AvgDegree: 2, MaxAttempts: 1}
	failed := false
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20 && !failed; trial++ {
		if _, err := Generate(cfg, rng); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Skip("every sparse placement happened to be connected; nothing to assert")
	}
}

func TestDistance(t *testing.T) {
	p := Point{X: 1, Y: 2}
	q := Point{X: 4, Y: 6}
	if got := p.Distance(q); got != 5 {
		t.Fatalf("Distance = %v, want 5", got)
	}
	if got := p.Distance(p); got != 0 {
		t.Fatalf("Distance to self = %v", got)
	}
}

// TestGenerateEdgeGeometryQuick property-checks the unit disk semantics:
// every generated link spans at most Range, and every non-link pair is
// farther apart than Range (modulo exact ties, which have probability zero
// with float64 coordinates).
func TestGenerateEdgeGeometryQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, err := Generate(Config{N: 25, AvgDegree: 6}, rng)
		if err != nil {
			return true // no connected placement found: nothing to check
		}
		for u := 0; u < 25; u++ {
			for v := u + 1; v < 25; v++ {
				d := net.Pos[u].Distance(net.Pos[v])
				if net.G.HasEdge(u, v) && d > net.Range+1e-9 {
					return false
				}
				if !net.G.HasEdge(u, v) && d < net.Range-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// TestLinksRounding checks the round(n*d/2) target for odd products.
func TestLinksRounding(t *testing.T) {
	tests := []struct {
		n    int
		d    float64
		want int
	}{
		{n: 10, d: 3, want: 15},
		{n: 5, d: 3, want: 8}, // 7.5 rounds to 8
		{n: 3, d: 1, want: 2}, // 1.5 rounds to 2
		{n: 20, d: 6, want: 60},
	}
	for _, tt := range tests {
		if got := links(tt.n, tt.d); got != tt.want {
			t.Fatalf("links(%d,%g) = %d, want %d", tt.n, tt.d, got, tt.want)
		}
	}
}

// TestGenerateBytesPerLink pins the generator's allocation per link: the
// m-slot edge array of 32-bit pairs, the cut bin's side list, the cell
// directory and the adjacency lists FromEdges builds. A scan that buffered
// every candidate as a 16-byte distance pair and copied the links into a
// [][2]int allocated 53.4 B per link, and a sort over 24-byte pairs in a
// buffer grown by appending ~220 B. The bound sits ~20 % above today's
// reading of 21.4 B at GOMAXPROCS 2; each extra scan worker adds a
// histogram, 22.2 B at 4 or more.
func TestGenerateBytesPerLink(t *testing.T) {
	const bound = 26
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	net, err := Generate(Config{N: 20000, AvgDegree: 18}, rand.New(rand.NewSource(1)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if net.Attempts != 1 {
		t.Fatalf("seed needed %d attempts; the bound assumes one placement", net.Attempts)
	}
	perLink := float64(after.TotalAlloc-before.TotalAlloc) / float64(net.G.M())
	t.Logf("%.1f B allocated per link", perLink)
	if perLink > bound {
		t.Fatalf("Generate allocated %.1f B per link, want <= %d", perLink, bound)
	}
}

// TestGenerateSmallAllocs pins the objects a paper-sized Generate allocates:
// it scans and sorts inline on the caller in a pooled scratch, so each
// placement allocates only its positions, its graph (struct, offsets,
// neighbors), its Network and Connected's search. The generator that
// buffered every candidate pair in a fresh scratch per call read 12 and 28.
// The race detector makes sync.Pool drop puts at random, so the pin runs
// without it.
func TestGenerateSmallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, c := range []struct {
		d             float64
		seed          int64
		attempts, pin int
	}{
		{d: 18, seed: 42, attempts: 1, pin: 7},
		{d: 6, seed: 3, attempts: 3, pin: 21},
	} {
		cfg := Config{N: 100, AvgDegree: c.d}
		rng := rand.New(rand.NewSource(c.seed))
		net, err := Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		if net.Attempts != c.attempts {
			t.Fatalf("d=%g seed %d: %d attempts, want %d", c.d, c.seed, net.Attempts, c.attempts)
		}
		allocs := testing.AllocsPerRun(20, func() {
			rng.Seed(c.seed)
			if _, err := Generate(cfg, rng); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("d=%g seed %d: %v objects", c.d, c.seed, allocs)
		if allocs > float64(c.pin) {
			t.Errorf("d=%g seed %d: Generate allocated %v objects, want <= %d", c.d, c.seed, allocs, c.pin)
		}
	}
}
