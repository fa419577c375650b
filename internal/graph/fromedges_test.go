package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// splitSorts lowers sortGrain to one vertex and sets GOMAXPROCS to workers
// until t ends, so FromEdges sorts a graph of n >= workers vertices in
// workers ranges.
func splitSorts(t testing.TB, workers int) {
	oldGrain, oldProcs := sortGrain, runtime.GOMAXPROCS(workers)
	sortGrain = 1
	t.Cleanup(func() {
		sortGrain = oldGrain
		runtime.GOMAXPROCS(oldProcs)
	})
}

// toInt32 converts an edge list to 32-bit endpoints.
func toInt32(edges [][2]int) [][2]int32 {
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		out[i] = [2]int32{int32(e[0]), int32(e[1])}
	}
	return out
}

// TestFromEdgesMatchesAddEdge builds random graphs edge by edge and checks
// FromEdges against them, from int and from int32 endpoints, with the
// adjacency sort on 1, 2, 3 and 7 workers.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			splitSorts(t, workers)
			checkFromEdgesMatchesAddEdge(t)
		})
	}
}

func checkFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(60)
		seen := map[[2]int]bool{}
		var edges [][2]int
		for len(edges) < rng.Intn(3*n) {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
		// Shuffle so FromEdges sees edges in arbitrary order and orientation.
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for i := range edges {
			if rng.Intn(2) == 0 {
				edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
			}
		}

		want := New(n)
		for _, e := range edges {
			if err := want.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		wide, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		narrow, err := FromEdges(n, toInt32(edges))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*Graph{wide, narrow} {
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("trial %d: size (%d,%d), want (%d,%d)",
					trial, got.N(), got.M(), want.N(), want.M())
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(got.Adj(v), want.Adj(v)) {
					t.Fatalf("trial %d: neighbors of %d differ: %v vs %v", trial, v, got.Adj(v), want.Adj(v))
				}
			}
		}
	}
}

func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(3, [][2]int{{0, 3}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := FromEdges(3, [][2]int{{-1, 0}}); err == nil {
		t.Error("negative endpoint accepted")
	}
	if _, err := FromEdges(3, [][2]int{{1, 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := FromEdges(3, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := FromEdges(3, [][2]int32{{0, 3}}); err == nil {
		t.Error("out-of-range int32 endpoint accepted")
	}
	g, err := FromEdges[int](0, nil)
	if err != nil || g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph: %v %v", g, err)
	}
}

// TestFromEdgesNamesFirstDuplicate checks that a split adjacency sort
// reports the lowest vertex with a duplicate neighbor, as the sequential
// sort does, whichever worker meets its duplicate first.
func TestFromEdgesNamesFirstDuplicate(t *testing.T) {
	edges := [][2]int32{{0, 1}, {2, 3}, {3, 2}, {7, 8}, {8, 7}, {5, 6}}
	const want = "graph: duplicate edge {2,3}"
	for _, workers := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			splitSorts(t, workers)
			if _, err := FromEdges(10, edges); err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}

// TestFromEdgesSizeLimit checks the 32-bit bound FromEdges applies before it
// allocates: vertex ids and the 2m adjacency offsets must fit an int32.
func TestFromEdgesSizeLimit(t *testing.T) {
	for _, c := range []struct {
		n, m int
		ok   bool
	}{
		{0, 0, true},
		{math.MaxInt32, 0, true},
		{math.MaxInt32 + 1, 0, false},
		{10, math.MaxInt32 / 2, true},
		{10, math.MaxInt32/2 + 1, false},
		{math.MaxInt32 + 1, math.MaxInt32, false},
	} {
		if err := checkSize(c.n, c.m); (err == nil) != c.ok {
			t.Errorf("checkSize(%d, %d) = %v, want ok %v", c.n, c.m, err, c.ok)
		}
	}
	// FromEdges consults it first: a vertex count beyond int32 is refused
	// before anything n-sized is allocated.
	if _, err := FromEdges[int](math.MaxInt32+1, nil); err == nil {
		t.Error("FromEdges accepted 2^31 vertices")
	}
}

// TestFromEdgesAdjacencyBytes pins the CSR footprint: a FromEdges graph
// retains n+1 int32 offsets and 2m int32 neighbor ids, nothing more.
func TestFromEdgesAdjacencyBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 50, 1000} {
		var edges [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(max(1, n/8)) == 0 {
					edges = append(edges, [2]int{v, u})
				}
			}
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		m := len(edges)
		if got, want := 4*cap(g.off)+4*cap(g.to), 4*(n+1)+8*m; got != want {
			t.Errorf("n=%d m=%d: %d adjacency bytes retained, want 4(n+1) + 8m = %d", n, m, got, want)
		}
	}
}

// FuzzGraphEditsMatchFromEdges applies a random sequence of AddEdge and
// RemoveEdge calls, some of them self-loops, out of range, repeated or of
// absent edges, and checks the result against FromEdges of the edge set the
// sequence leaves: the same Adj, Degree, HasEdge, Edges and M, and Connected
// agrees with the Components count. data[0] sets
// the vertex count (1-24, its value mod 24) and the workers of a second
// FromEdges, from int32 endpoints, that must build the same graph (1-8, its
// value div 24, mod 8); every following triple is one edit: the low bit of
// its first byte picks remove or add, the next two bytes are the endpoints,
// taken modulo n+1 so that n itself appears as an out-of-range id.
func FuzzGraphEditsMatchFromEdges(f *testing.F) {
	f.Add([]byte{5, 1, 0, 1, 1, 1, 2, 0, 0, 1, 1, 4, 0})
	f.Add([]byte{3, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 2, 3, 0, 1, 0})
	f.Add([]byte{8, 1, 7, 0, 1, 0, 7, 1, 3, 5, 0, 7, 0, 1, 8, 2, 1, 6, 6})
	f.Add([]byte{24, 1, 0, 23, 1, 23, 12, 1, 12, 0, 0, 0, 23, 1, 5, 6, 0, 12, 23})
	f.Add([]byte{8 + 24*6, 1, 7, 0, 1, 0, 7, 1, 3, 5, 1, 2, 4, 1, 6, 1, 1, 8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%24 + 1
		g := New(n)
		set := map[[2]int]bool{}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			u, v := int(ops[1])%(n+1), int(ops[2])%(n+1)
			key := [2]int{min(u, v), max(u, v)}
			if ops[0]&1 == 0 {
				g.RemoveEdge(u, v)
				delete(set, key)
				continue
			}
			bad := u == n || v == n || u == v
			if err := g.AddEdge(u, v); (err != nil) != bad {
				t.Fatalf("AddEdge(%d, %d) on %d vertices: err = %v", u, v, n, err)
			}
			if !bad {
				set[key] = true
			}
		}
		edges := make([][2]int, 0, len(set))
		for e := range set {
			edges = append(edges, e)
		}
		want, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		splitSorts(t, int(data[0])/24%8+1)
		narrow, err := FromEdges(n, toInt32(edges))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(narrow.Adj(v), want.Adj(v)) {
				t.Fatalf("vertex %d: split int32 build Adj %v, want %v", v, narrow.Adj(v), want.Adj(v))
			}
		}
		if g.N() != want.N() || g.M() != want.M() {
			t.Fatalf("size (%d,%d), want (%d,%d)", g.N(), g.M(), want.N(), want.M())
		}
		if !slices.Equal(g.Edges(), want.Edges()) {
			t.Fatalf("Edges %v, want %v", g.Edges(), want.Edges())
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.Adj(v), want.Adj(v)) || g.Degree(v) != want.Degree(v) {
				t.Fatalf("vertex %d: Adj %v degree %d, want %v degree %d",
					v, g.Adj(v), g.Degree(v), want.Adj(v), want.Degree(v))
			}
		}
		if _, count := g.Components(); g.Connected() != (count == 1) {
			t.Fatalf("Connected() = %v with %d components", g.Connected(), count)
		}
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				if g.HasEdge(u, v) != want.HasEdge(u, v) {
					t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, v, g.HasEdge(u, v), want.HasEdge(u, v))
				}
			}
		}
	})
}

// TestFromEdgesMutableAfterBuild edits a graph whose adjacency array
// FromEdges sized exactly: an insertion must grow it and shift the later
// vertices' segments instead of overwriting a neighbor's.
func TestFromEdgesMutableAfterBuild(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(2, 3) || !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatal("AddEdge after FromEdges corrupted existing adjacency")
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || !g.HasEdge(2, 3) || g.M() != 2 {
		t.Fatal("RemoveEdge after FromEdges misbehaved")
	}
}
