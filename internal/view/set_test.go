package view

import (
	"math/rand"
	"slices"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
)

// splitBuilds lowers buildGrain to one vertex until t ends, so a BuildAll
// with w workers cuts a graph of n >= w vertices into w ranges.
func splitBuilds(t testing.TB) {
	old := buildGrain
	buildGrain = 1
	t.Cleanup(func() { buildGrain = old })
}

// checkSetMatchesNewLocal builds every k-hop view of g into s on up to
// workers ranges and checks each against the view NewLocal builds alone:
// same members, same fringe bits, and the same answers to HasEdge, Degree and
// Pr for every vertex (HasEdge along every topology link, which is where
// views differ from the graph).
func checkSetMatchesNewLocal(t *testing.T, b *Builder, s *Set, g *graph.Graph, k int, metric Metric, workers int) {
	t.Helper()
	n := g.N()
	b.BuildAll(s, g, k, metric, workers)
	if len(s.Views()) != n {
		t.Fatalf("n=%d k=%d: set has %d views", n, k, len(s.Views()))
	}
	if r := ranges(n, workers); len(s.parts) != r {
		t.Fatalf("n=%d k=%d workers=%d: built %d ranges, want %d", n, k, workers, len(s.parts), r)
	}
	base := BasePriorities(g, metric)
	for v := 0; v < n; v++ {
		got, want := &s.Views()[v], NewLocal(g, v, k, base)
		if got.Owner != v || got.Hops() != k || got.N() != n {
			t.Fatalf("n=%d k=%d: view %d has owner %d, hops %d, n %d", n, k, v, got.Owner, got.Hops(), got.N())
		}
		if !slices.Equal(got.Members(), want.Members()) {
			t.Fatalf("n=%d k=%d: view %d members %v, NewLocal has %v", n, k, v, got.Members(), want.Members())
		}
		for i := range want.Members() {
			if got.FringeAt(i) != want.FringeAt(i) || got.StatusAt(i) != want.StatusAt(i) {
				t.Fatalf("n=%d k=%d: view %d member %d: fringe %v status %v, NewLocal has %v %v",
					n, k, v, i, got.FringeAt(i), got.StatusAt(i), want.FringeAt(i), want.StatusAt(i))
			}
		}
		for x := 0; x < n; x++ {
			if got.Pr(x) != want.Pr(x) || got.Degree(x) != want.Degree(x) {
				t.Fatalf("n=%d k=%d: view %d vertex %d: Pr %v Degree %d, NewLocal has %v %d",
					n, k, v, x, got.Pr(x), got.Degree(x), want.Pr(x), want.Degree(x))
			}
			g.ForEachNeighbor(x, func(y int) {
				if got.HasEdge(x, y) != want.HasEdge(x, y) {
					t.Fatalf("n=%d k=%d: view %d HasEdge(%d,%d) = %v, NewLocal says %v",
						n, k, v, x, y, got.HasEdge(x, y), want.HasEdge(x, y))
				}
			})
		}
	}
}

// TestSetMatchesNewLocalGeo checks BuildAll against the one-view builder on
// unit disk graphs from 2 to 300 nodes, sparse (d=4) and dense (d=18), for
// global, 1-, 2- and 3-hop views, each built whole and split into 2 to 4
// ranges — through one Builder and one Set, so every build but the first
// lands in slabs a different size, depth, density and split left behind, and
// both of fill's member orders (read off the distance array, sorted) are hit.
func TestSetMatchesNewLocalGeo(t *testing.T) {
	splitBuilds(t)
	b, s := NewBuilder(), &Set{}
	for _, n := range []int{2, 3, 4, 5, 7, 10, 20, 33, 60, 100, 170, 300} {
		for _, d := range []float64{4, 18} {
			if d == 4 && n > 100 {
				d = 6 // no connected d=4 network turns up at this size
			}
			net, err := geo.Generate(geo.Config{N: n, AvgDegree: min(d, float64(n-1))}, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 2, 3} {
				checkSetMatchesNewLocal(t, b, s, net.G, k, MetricDegree, 1)
				checkSetMatchesNewLocal(t, b, s, net.G, k, MetricDegree, 2+k%3)
			}
		}
	}
}

// statusBytes reads every status byte of the view, fringe bit included.
func statusBytes(lv *Local) []uint8 { return slices.Clone(lv.meta) }

// TestSetMarksAreIsolated checks that views cut from one slab do not share a
// byte: with every status byte of view v overwritten, its neighbours in the
// slab, and the set a session overlay was taken from, read as before; and a
// view's member slice has no capacity to append into the next view's. The
// 2-hop set is built in two ranges, so some neighbours sit in another slab.
func TestSetMarksAreIsolated(t *testing.T) {
	splitBuilds(t)
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 6}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2} {
		var s Set
		NewBuilder().BuildAll(&s, net.G, k, MetricID, 1+k/2)
		for pass, views := range [][]Local{s.views, s.Overlay()} {
			for v := 1; v+1 < len(views); v++ {
				before, after := statusBytes(&views[v-1]), statusBytes(&views[v+1])
				built := statusBytes(&s.Views()[v])
				for i := range views[v].meta {
					views[v].meta[i] = 0xff
				}
				if !slices.Equal(statusBytes(&views[v-1]), before) || !slices.Equal(statusBytes(&views[v+1]), after) {
					t.Fatalf("k=%d pass %d: writing view %d's status bytes changed a neighbouring view", k, pass, v)
				}
				if pass == 1 && !slices.Equal(statusBytes(&s.Views()[v]), built) {
					t.Fatalf("k=%d: writing overlay view %d's status bytes changed the set it overlays", k, v)
				}
				copy(views[v].meta, built)
			}
		}
		for v := 0; v+1 < len(s.Views()); v++ {
			lv := &s.Views()[v]
			if cap(lv.members) != len(lv.members) || cap(lv.meta) != len(lv.meta) {
				t.Fatalf("k=%d: view %d's slices have spare capacity (%d/%d members, %d/%d status bytes): an append would write into the slab",
					k, v, len(lv.members), cap(lv.members), len(lv.meta), cap(lv.meta))
			}
			next := slices.Clone(s.Views()[v+1].Members())
			_ = append(lv.Members(), -1)
			if !slices.Equal(s.Views()[v+1].Members(), next) {
				t.Fatalf("k=%d: appending to view %d's members reached view %d", k, v, v+1)
			}
		}
	}
}

// TestSetOverlayAndResetRestoreFreshState marks a set and an overlay of it all
// over, and checks that Set.ResetStatus, and a new overlay of the marked set,
// both read like the set when it was built, whole or in three ranges.
func TestSetOverlayAndResetRestoreFreshState(t *testing.T) {
	splitBuilds(t)
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, workers int }{{0, 1}, {1, 1}, {2, 1}, {0, 3}, {1, 3}, {2, 3}} {
		k := c.k
		var s Set
		NewBuilder().BuildAll(&s, net.G, k, MetricDegree, c.workers)
		var fresh [][]uint8
		for v := 0; v < len(s.Views()); v++ {
			fresh = append(fresh, statusBytes(&s.Views()[v]))
		}
		same := func(what string, views []Local) {
			t.Helper()
			for v := range views {
				if !slices.Equal(statusBytes(&views[v]), fresh[v]) {
					t.Fatalf("k=%d: %s: view %d does not read as freshly built", k, what, v)
				}
			}
		}
		mark := func(views []Local) {
			for v := range views {
				for x := 0; x < len(views); x++ {
					if (x+v)%2 == 0 {
						views[v].MarkVisited(x)
					} else {
						views[v].MarkDesignated(x)
					}
				}
			}
		}
		overlay := s.Overlay()
		same("overlay of a fresh set", overlay)
		mark(overlay)
		same("set under a marked overlay", s.views)
		mark(s.views)
		if slices.Equal(statusBytes(&s.Views()[0]), fresh[0]) {
			t.Fatalf("k=%d: marking changed nothing", k)
		}
		same("overlay of a marked set", s.Overlay())
		s.ResetStatus()
		same("set after ResetStatus", s.views)
	}
}

// FuzzSetMatchesNewLocal decodes a graph, a hop count and a worker count from
// bytes — vertex count, k and workers in one byte, then vertex pairs — and
// checks BuildAll against NewLocal on it, connected or not, whole or split
// into up to 4 ranges, through a Builder and a Set that every input shares.
func FuzzSetMatchesNewLocal(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{9, 1, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6})
	f.Add([]byte{30, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 9, 10})
	f.Add([]byte{4, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 2})
	splitBuilds(f)
	b, s := NewBuilder(), &Set{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k, workers := int(data[0])%64, int(data[1])%5, 1+int(data[1])/5%4
		g := graph.New(n)
		for i := 2; i+1 < len(data) && n > 0; i += 2 {
			_ = g.AddEdge(int(data[i])%n, int(data[i+1])%n) // loops and repeats are refused
		}
		checkSetMatchesNewLocal(t, b, s, g, k, MetricDegree, workers)
	})
}

// TestBuildAllRestartsOnDisconnectedGraphs builds a hand-made graph of four
// components — a path, an isolated vertex, a triangle and an edge, with ids
// interleaved — whole and in two to four ranges: the BFS order starts over
// from the lowest unreached vertex of each component, and every view matches
// NewLocal.
func TestBuildAllRestartsOnDisconnectedGraphs(t *testing.T) {
	splitBuilds(t)
	g := graph.New(9)
	for _, e := range [][2]int{{0, 4}, {4, 7}, {1, 5}, {5, 8}, {8, 1}, {3, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	b, s := NewBuilder(), &Set{}
	if got, want := b.bfsOrder(g), []int32{0, 4, 7, 1, 5, 8, 2, 3, 6}; !slices.Equal(got, want) {
		t.Fatalf("BFS order %v, want %v", got, want)
	}
	for _, k := range []int{0, 1, 2, 3} {
		for workers := 1; workers <= 4; workers++ {
			checkSetMatchesNewLocal(t, b, s, g, k, MetricDegree, workers)
		}
	}
}

// TestSplitRebuildReusesTheSet rebuilds a 300-node set in three ranges into
// the Set that served the same build: every slab chunk is reused, and the
// rebuild allocates nothing but its two helper goroutines' closures.
func TestSplitRebuildReusesTheSet(t *testing.T) {
	splitBuilds(t)
	net, err := geo.Generate(geo.Config{N: 300, AvgDegree: 18}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2} {
		b, s := NewBuilder(), &Set{}
		b.BuildAll(s, net.G, k, MetricDegree, 3)
		chunks := func() (out []*int32) {
			for _, p := range s.parts {
				for _, c := range p.ids.chunks {
					out = append(out, &c[0])
				}
			}
			return out
		}
		before := chunks()
		allocs := testing.AllocsPerRun(20, func() { b.BuildAll(s, net.G, k, MetricDegree, 3) })
		if allocs > 2 {
			t.Errorf("k=%d: a split rebuild into a served set allocates %v objects, want at most one per helper (2)", k, allocs)
		}
		if !slices.Equal(chunks(), before) {
			t.Errorf("k=%d: a split rebuild replaced the set's slab chunks", k)
		}
	}
}

// TestSmallBuildIsOneRange pins the production grain: a paper-sized
// network's BuildAll is one range on the calling goroutine whatever the
// worker count — it makes no helper Builder and, warm, allocates nothing,
// so it starts no goroutine — while the simulator's 2000-node at-scale
// differential test splits in two on two cores.
func TestSmallBuildIsOneRange(t *testing.T) {
	if got := ranges(2000, 2); got != 2 {
		t.Errorf("ranges(2000, 2) = %d, want 2", got)
	}
	net, err := geo.Generate(geo.Config{N: 100, AvgDegree: 18}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, s := NewBuilder(), &Set{}
	b.BuildAll(s, net.G, 2, MetricID, 64)
	if len(s.parts) != 1 || len(b.helpers) != 0 {
		t.Fatalf("n=100: built %d ranges with %d helpers, want 1 and 0", len(s.parts), len(b.helpers))
	}
	if allocs := testing.AllocsPerRun(20, func() { b.BuildAll(s, net.G, 2, MetricID, 64) }); allocs != 0 {
		t.Errorf("n=100: a warm BuildAll with 64 workers allocates %v objects, want 0 (no goroutine)", allocs)
	}
}
