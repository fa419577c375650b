package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// path builds the path graph 0-1-2-...-(n-1).
func path(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		mustEdge(t, g, i, i+1)
	}
	return g
}

func TestBFSDistancesPath(t *testing.T) {
	g := path(t, 5)
	dist := g.BFSDistances(0)
	if !equalInts(dist, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("dist = %v", dist)
	}
	dist = g.BFSDistances(2)
	if !equalInts(dist, []int{2, 1, 0, 1, 2}) {
		t.Fatalf("dist from middle = %v", dist)
	}
}

func TestBFSDistancesDisconnected(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	dist := g.BFSDistances(0)
	if !equalInts(dist, []int{0, 1, -1, -1}) {
		t.Fatalf("dist = %v", dist)
	}
}

func TestBFSDistancesBadSource(t *testing.T) {
	g := New(3)
	dist := g.BFSDistances(7)
	if !equalInts(dist, []int{-1, -1, -1}) {
		t.Fatalf("dist = %v", dist)
	}
}

func TestConnected(t *testing.T) {
	tests := []struct {
		name  string
		build func(t *testing.T) *Graph
		want  bool
	}{
		{name: "empty", build: func(t *testing.T) *Graph { return New(0) }, want: true},
		{name: "single", build: func(t *testing.T) *Graph { return New(1) }, want: true},
		{name: "path", build: func(t *testing.T) *Graph { return path(t, 6) }, want: true},
		{name: "two components", build: func(t *testing.T) *Graph {
			g := New(4)
			mustEdge(t, g, 0, 1)
			mustEdge(t, g, 2, 3)
			return g
		}, want: false},
		{name: "isolated vertex", build: func(t *testing.T) *Graph {
			g := New(3)
			mustEdge(t, g, 0, 1)
			return g
		}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.build(t).Connected(); got != tt.want {
				t.Fatalf("Connected() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestConnectedBytesPerCall pins Connected's footprint at n = 20,000: a
// visited bitset and an int32 queue, 4n + n/8 bytes plus size-class
// rounding. Two n-entry []int arrays read 320 KB per call here.
func TestConnectedBytesPerCall(t *testing.T) {
	const n = 20000
	ring := make([][2]int, n)
	for i := range ring {
		ring[i] = [2]int{i, (i + 1) % n}
	}
	g, err := FromEdges(n, ring)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := FromEdges(n, ring[:n/2]) // a path over half the vertices
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() || cut.Connected() {
		t.Fatalf("ring Connected() = %v, half path Connected() = %v", g.Connected(), cut.Connected())
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		g.Connected()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per Connected at n = %d", per, n)
	if bound := uint64(4*n + n/8 + 4096); per > bound {
		t.Fatalf("Connected allocated %d B per call at n = %d, want <= %d", per, n, bound)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 4, 5)
	labels, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if !equalInts(labels, []int{0, 0, 0, 1, 2, 2}) {
		t.Fatalf("labels = %v", labels)
	}
}

func TestKHopNeighbors(t *testing.T) {
	g := path(t, 6)
	tests := []struct {
		v, k int
		want []int
	}{
		{v: 0, k: 0, want: []int{0}},
		{v: 0, k: 1, want: []int{0, 1}},
		{v: 2, k: 2, want: []int{0, 1, 2, 3, 4}},
		{v: 2, k: 10, want: []int{0, 1, 2, 3, 4, 5}},
	}
	for _, tt := range tests {
		got := g.KHopNeighbors(tt.v, tt.k)
		if !equalInts(got, tt.want) {
			t.Fatalf("KHopNeighbors(%d,%d) = %v, want %v", tt.v, tt.k, got, tt.want)
		}
	}
}

// TestLocalViewDefinition2 checks the exact edge membership rule of
// Definition 2 on a graph where two vertices exactly k hops away share an
// edge: that edge must be invisible.
func TestLocalViewDefinition2(t *testing.T) {
	// 0-1, 0-2, 1-3, 2-4, 3-4: vertices 3 and 4 are both 2 hops from 0, so
	// the edge {3,4} is not in E2(0), while {1,3} and {2,4} are.
	g := New(5)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 4)
	mustEdge(t, g, 3, 4)

	sub, visible := g.LocalView(0, 2)
	for v := 0; v < 5; v++ {
		if !visible[v] {
			t.Fatalf("vertex %d invisible in 2-hop view", v)
		}
	}
	wantEdges := map[[2]int]bool{{0, 1}: true, {0, 2}: true, {1, 3}: true, {2, 4}: true}
	for _, e := range sub.Edges() {
		if !wantEdges[e] {
			t.Fatalf("unexpected edge %v in E2(0)", e)
		}
		delete(wantEdges, e)
	}
	if len(wantEdges) != 0 {
		t.Fatalf("missing edges in E2(0): %v", wantEdges)
	}

	// With 3-hop information the {3,4} link becomes visible.
	sub3, _ := g.LocalView(0, 3)
	if !sub3.HasEdge(3, 4) {
		t.Fatal("edge {3,4} missing from 3-hop view")
	}
}

func TestLocalViewOneHop(t *testing.T) {
	// G1(v) contains only the star around v: links between two neighbors
	// are invisible (the paper's example following Definition 2).
	g := New(3)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 2)
	sub, visible := g.LocalView(0, 1)
	if !visible[0] || !visible[1] || !visible[2] {
		t.Fatalf("visible = %v", visible)
	}
	if sub.HasEdge(1, 2) {
		t.Fatal("link between two 1-hop neighbors must be invisible in G1")
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(0, 2) {
		t.Fatal("star edges missing from G1")
	}
}

func TestLocalViewGlobal(t *testing.T) {
	g := path(t, 4)
	for _, k := range []int{0, -1, 4, 99} {
		sub, visible := g.LocalView(1, k)
		if sub.M() != g.M() {
			t.Fatalf("k=%d: M = %d, want %d", k, sub.M(), g.M())
		}
		for v, ok := range visible {
			if !ok {
				t.Fatalf("k=%d: vertex %d invisible in global view", k, v)
			}
		}
	}
}

func TestLocalViewInvisibleBeyondK(t *testing.T) {
	g := path(t, 6)
	_, visible := g.LocalView(0, 2)
	want := []bool{true, true, true, false, false, false}
	for v := range want {
		if visible[v] != want[v] {
			t.Fatalf("visible[%d] = %v, want %v", v, visible[v], want[v])
		}
	}
}

// TestLocalViewQuick property-checks the view invariants on random graphs:
// (1) visibility equals BFS distance <= k, (2) every view edge exists in the
// original graph, (3) every view edge has an endpoint within k-1 hops, and
// (4) every original edge with an endpoint within k-1 hops (other endpoint
// within k) appears.
func TestLocalViewQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := randomGraph(rng, n, 0.2)
		v := rng.Intn(n)
		k := 1 + rng.Intn(4)
		sub, visible := g.LocalView(v, k)
		dist := g.BFSDistances(v)
		for u := 0; u < n; u++ {
			wantVis := dist[u] >= 0 && dist[u] <= k
			if visible[u] != wantVis {
				return false
			}
		}
		for _, e := range sub.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
			du, dw := dist[e[0]], dist[e[1]]
			if du > k-1 && dw > k-1 {
				return false
			}
		}
		for _, e := range g.Edges() {
			du, dw := dist[e[0]], dist[e[1]]
			if du < 0 || dw < 0 || du > k || dw > k {
				continue
			}
			inView := du <= k-1 || dw <= k-1
			if inView != sub.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}
