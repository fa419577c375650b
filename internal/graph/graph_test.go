package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphEmpty(t *testing.T) {
	g := mustGraph(t, 5)
	if got := g.N(); got != 5 {
		t.Fatalf("N() = %d, want 5", got)
	}
	if got := g.M(); got != 0 {
		t.Fatalf("M() = %d, want 0", got)
	}
	for v := 0; v < 5; v++ {
		if got := g.Degree(v); got != 0 {
			t.Fatalf("Degree(%d) = %d, want 0", v, got)
		}
	}
}

func TestNewGraphNegative(t *testing.T) {
	g := mustGraph(t, -3)
	if got := g.N(); got != 0 {
		t.Fatalf("N() = %d, want 0", got)
	}
}

// TestAddEdge checks the reference insertion that the FromEdges tests
// compare against: an inserted edge is seen from both endpoints, and only it.
func TestAddEdge(t *testing.T) {
	g := mustGraph(t, 4)
	if err := g.addEdge(0, 2); err != nil {
		t.Fatalf("addEdge(0,2): %v", err)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("edge {0,2} not symmetric")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("unexpected edge {0,1}")
	}
	if got := g.M(); got != 1 {
		t.Fatalf("M() = %d, want 1", got)
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := mustGraph(t, 5, [2]int{3, 1}, [2]int{3, 4}, [2]int{3, 0})
	nbrs := g.Neighbors(3)
	want := []int{0, 1, 4}
	if !equalInts(nbrs, want) {
		t.Fatalf("Neighbors(3) = %v, want %v", nbrs, want)
	}
	nbrs[0] = 99 // mutating the copy must not corrupt the graph
	if !equalInts(g.Neighbors(3), want) {
		t.Fatal("Neighbors returned internal storage")
	}
}

func TestForEachNeighborOrder(t *testing.T) {
	g := mustGraph(t, 6, [2]int{0, 5}, [2]int{0, 2}, [2]int{0, 4}, [2]int{0, 1})
	var got []int
	g.ForEachNeighbor(0, func(u int) { got = append(got, u) })
	if !equalInts(got, []int{1, 2, 4, 5}) {
		t.Fatalf("ForEachNeighbor order = %v", got)
	}
}

func TestEdges(t *testing.T) {
	g := mustGraph(t, 4, [2]int{2, 1}, [2]int{0, 3})
	edges := g.Edges()
	want := [][2]int{{0, 3}, {1, 2}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges() = %v, want %v", edges, want)
		}
	}
}

func TestAverageDegree(t *testing.T) {
	if got := mustGraph(t, 4).AverageDegree(); got != 0 {
		t.Fatalf("AverageDegree() = %v, want 0", got)
	}
	g := mustGraph(t, 4, [2]int{0, 1}, [2]int{2, 3})
	if got := g.AverageDegree(); got != 1 {
		t.Fatalf("AverageDegree() = %v, want 1", got)
	}
	if mustGraph(t, 0).AverageDegree() != 0 {
		t.Fatal("AverageDegree of empty graph should be 0")
	}
}

func TestIsComplete(t *testing.T) {
	if mustGraph(t, 3).IsComplete() {
		t.Fatal("empty 3-graph reported complete")
	}
	if !mustGraph(t, 3, [2]int{0, 1}, [2]int{0, 2}, [2]int{1, 2}).IsComplete() {
		t.Fatal("triangle not reported complete")
	}
	if !mustGraph(t, 1).IsComplete() {
		t.Fatal("single vertex should be complete")
	}
}

// TestHasEdgeQuick property-checks HasEdge symmetry and consistency with the
// edge list on random graphs.
func TestHasEdgeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, 0.3)
		present := make(map[[2]int]bool)
		for _, e := range g.Edges() {
			present[e] = true
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := present[[2]int{min(u, v), max(u, v)}] && u != v
				if g.HasEdge(u, v) != want {
					return false
				}
				if g.HasEdge(u, v) != g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}

// TestDegreeSumQuick property-checks the handshake lemma: degrees sum to 2M.
func TestDegreeSumQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g := randomGraph(rng, n, 0.25)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// --- shared test helpers ---

// mustGraph builds the graph on n vertices with the given edges.
func mustGraph(t *testing.T, n int, edges ...[2]int) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomGraph builds an Erdős–Rényi style graph with edge probability p.
func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func quickConfig(iters int) *quick.Config {
	return &quick.Config{
		MaxCount: iters,
		Rand:     rand.New(rand.NewSource(1)),
	}
}
