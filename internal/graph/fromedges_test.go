package graph

import (
	"cmp"
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

// addEdge is the reference FromEdges is checked against: it inserts the
// undirected edge {u, v} into the CSR arrays of a graph under test, one
// sorted insertion per endpoint. Self-loops and out-of-range vertices are
// rejected; adding an existing edge is a no-op. An insertion shifts the
// adjacency array, so it costs O(n + m).
func (g *Graph) addEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u > v {
		u, v = v, u
	}
	iu, found := slices.BinarySearch(g.Adj(u), int32(v))
	if found {
		return nil
	}
	if err := checkSize(g.n, g.m+1); err != nil {
		return err
	}
	iv, _ := slices.BinarySearch(g.Adj(v), int32(u))
	// u < v, so u's segment lies before v's: v goes in at pu, u at pv + 1
	// once v's insertion has shifted v's segment by one.
	pu, pv := int(g.off[u])+iu, int(g.off[v])+iv
	g.to = slices.Insert(g.to, pv, int32(u))
	g.to = slices.Insert(g.to, pu, int32(v))
	g.shift(u, v, 1)
	g.m++
	return nil
}

// shift moves the offsets after an edit of the edge {u, v}, u < v, that
// changed both endpoints' degrees by d: the segments of u+1..v move by d,
// the ones after v by 2d.
func (g *Graph) shift(u, v int, d int32) {
	for w := u + 1; w <= v; w++ {
		g.off[w] += d
	}
	for w := v + 1; w <= g.n; w++ {
		g.off[w] += 2 * d
	}
}

// TestFromEdgesMatchesAddEdge builds random graphs edge by edge with the
// addEdge reference and checks FromEdges against them, from int and from int32 endpoints, with the
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

		want := mustGraph(t, n)
		for _, e := range edges {
			if err := want.addEdge(e[0], e[1]); err != nil {
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

// FuzzGraphEditsMatchFromEdges applies a random sequence of edits, some of
// them self-loops, out of range, repeated or of absent edges, to a reference
// edge set, and checks FromEdges of the set it leaves against it: the same
// Adj, Degree, HasEdge, Edges and M, built from int endpoints, from int32
// endpoints and in split sorts, with Connected agreeing with the Components
// count. data[0] sets the vertex count (1-24, its value mod 24) and the
// workers of the split int32 build (1-8, its value div 24, mod 8); every
// following triple is one edit: the low bit of its first byte picks remove
// or add, the next two bytes are the endpoints, taken modulo n+1 so that n
// itself appears as an out-of-range id. An add of a self-loop or an
// out-of-range edge leaves the set alone, and FromEdges must refuse that
// edge.
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
		set := map[[2]int]bool{}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			u, v := int(ops[1])%(n+1), int(ops[2])%(n+1)
			key := [2]int{min(u, v), max(u, v)}
			if ops[0]&1 == 0 {
				delete(set, key)
				continue
			}
			if u == n || v == n || u == v {
				if _, err := FromEdges(n, [][2]int{{u, v}}); err == nil {
					t.Fatalf("FromEdges accepted edge {%d, %d} on %d vertices", u, v, n)
				}
				continue
			}
			set[key] = true
		}
		edges := make([][2]int, 0, len(set))
		adj := make([][]int32, n)
		for e := range set {
			edges = append(edges, e)
			adj[e[0]] = append(adj[e[0]], int32(e[1]))
			adj[e[1]] = append(adj[e[1]], int32(e[0]))
		}
		for _, a := range adj {
			slices.Sort(a)
		}
		wantEdges := slices.Clone(edges)
		slices.SortFunc(wantEdges, func(a, b [2]int) int { return cmp.Or(a[0]-b[0], a[1]-b[1]) })

		wide, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		splitSorts(t, int(data[0])/24%8+1)
		narrow, err := FromEdges(n, toInt32(edges))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*Graph{wide, narrow} {
			if g.N() != n || g.M() != len(set) {
				t.Fatalf("size (%d,%d), want (%d,%d)", g.N(), g.M(), n, len(set))
			}
			if !slices.Equal(g.Edges(), wantEdges) {
				t.Fatalf("Edges %v, want %v", g.Edges(), wantEdges)
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(g.Adj(v), adj[v]) || g.Degree(v) != len(adj[v]) {
					t.Fatalf("vertex %d: Adj %v degree %d, want %v", v, g.Adj(v), g.Degree(v), adj[v])
				}
			}
			if _, count := g.Components(); g.Connected() != (count == 1) {
				t.Fatalf("Connected() = %v with %d components", g.Connected(), count)
			}
			for u := -1; u <= n; u++ {
				for v := -1; v <= n; v++ {
					want := set[[2]int{min(u, v), max(u, v)}]
					if g.HasEdge(u, v) != want {
						t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, v, g.HasEdge(u, v), want)
					}
				}
			}
		}
	})
}
