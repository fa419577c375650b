package view

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
)

// splitBuilds lowers buildGrain to one vertex and claimGrain to three until
// t ends, so a BuildAll with w workers spreads a graph of n >= w vertices
// over w workers and cuts it into blocks of three.
func splitBuilds(t testing.TB) {
	oldBuild, oldClaim := buildGrain, claimGrain
	buildGrain, claimGrain = 1, 3
	t.Cleanup(func() { buildGrain, claimGrain = oldBuild, oldClaim })
}

// checkSetMatchesNewLocal builds every k-hop view of g into s on up to
// workers goroutines, dropping the views of the vertices drop names (nil
// drops none, through a nil skip and keep) — the even ones through skip,
// before their search, the odd ones through keep — and checks each kept view
// against the view NewLocal builds alone: same members, same fringe bits, and
// the same answers to HasEdge, Degree and Pr for every vertex (HasEdge along
// every topology link, which is where views differ from the graph). keep must
// be offered every vertex but the skipped ones once, with a worker index
// below Ranges, and a dropped view must be absent and count no members.
func checkSetMatchesNewLocal(t *testing.T, b *Builder, s *Set, g *graph.Graph, k int, metric Metric, workers int, drop func(v int) bool) {
	t.Helper()
	n := g.N()
	r := Ranges(n, workers)
	var (
		skip []uint64
		keep func(int, *Local) bool
	)
	skipped := func(v int) bool { return drop != nil && drop(v) && v%2 == 0 }
	offered := make([]atomic.Int32, n)
	var badWorker atomic.Bool
	if drop != nil {
		skip = make([]uint64, (n+63)/64)
		for v := 0; v < n; v++ {
			if skipped(v) {
				skip[v>>6] |= 1 << (v & 63)
			}
		}
		keep = func(w int, lv *Local) bool {
			offered[lv.Owner].Add(1)
			badWorker.CompareAndSwap(false, w < 0 || w >= r)
			return !drop(lv.Owner)
		}
	}
	b.BuildAll(s, g, k, metric, workers, skip, keep)
	if len(s.views) != n {
		t.Fatalf("n=%d k=%d: set has %d views", n, k, len(s.views))
	}
	if badWorker.Load() {
		t.Fatalf("n=%d k=%d workers=%d: keep was called with a worker index outside [0, %d)", n, k, workers, r)
	}
	base := BasePriorities(g, metric)
	total := 0
	for v := 0; v < n; v++ {
		if drop != nil {
			want := int32(1)
			if skipped(v) {
				want = 0
			}
			if got := offered[v].Load(); got != want {
				t.Fatalf("n=%d k=%d: keep was offered view %d %d times, want %d", n, k, v, got, want)
			}
		}
		if drop != nil && drop(v) {
			if s.View(v) != nil {
				t.Fatalf("n=%d k=%d: dropped view %d is present", n, k, v)
			}
			continue
		}
		got, want := s.View(v), NewLocal(g, v, k, base)
		if got == nil {
			t.Fatalf("n=%d k=%d: kept view %d is absent", n, k, v)
		}
		total += len(want.Members())
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
	if s.total != total {
		t.Fatalf("n=%d k=%d: set counts %d members, its kept views hold %d", n, k, s.total, total)
	}
}

// TestSetMatchesNewLocalGeo checks BuildAll against the one-view builder on
// unit disk graphs from 2 to 300 nodes, sparse (d=4) and dense (d=18), for
// global, 1-, 2- and 3-hop views, each built on one worker and on 2 to 4,
// keeping every view and keeping two thirds of them — through one Builder and
// one Set, so every build but the first lands in slabs a different size,
// depth, density, split and selection left behind, and both of fill's member
// orders (read off the distance array, sorted) are hit.
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
				checkSetMatchesNewLocal(t, b, s, net.G, k, MetricDegree, 1, nil)
				checkSetMatchesNewLocal(t, b, s, net.G, k, MetricDegree, 2+k%3, nil)
				checkSetMatchesNewLocal(t, b, s, net.G, k, MetricDegree, 1+k%3, func(v int) bool { return (v*7+k)%3 == 0 })
			}
		}
	}
}

// statusBytes reads every status byte of the view, fringe bit included.
func statusBytes(lv *Local) []uint8 { return slices.Clone(lv.meta) }

// viewsOf returns copies of the views of s, indexed by node, which mark the
// set's own status bytes.
func viewsOf(s *Set) []Local {
	out := make([]Local, len(s.views))
	for v, lv := range s.views {
		out[v] = *lv
	}
	return out
}

// TestSetMarksAreIsolated checks that views cut from one slab do not share a
// byte: with every status byte of view v overwritten, its neighbours in the
// slab, and the set a session overlay was taken from, read as before; and a
// view's member slice has no capacity to append into the next view's. The
// 2-hop set is built on two workers in blocks of three, so some neighbours
// sit in another slab.
func TestSetMarksAreIsolated(t *testing.T) {
	splitBuilds(t)
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 6}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2} {
		var s Set
		NewBuilder().BuildAll(&s, net.G, k, MetricID, 1+k/2, nil, nil)
		for pass, views := range [][]Local{viewsOf(&s), s.Overlay()} {
			for v := 1; v+1 < len(views); v++ {
				before, after := statusBytes(&views[v-1]), statusBytes(&views[v+1])
				built := statusBytes(s.View(v))
				for i := range views[v].meta {
					views[v].meta[i] = 0xff
				}
				if !slices.Equal(statusBytes(&views[v-1]), before) || !slices.Equal(statusBytes(&views[v+1]), after) {
					t.Fatalf("k=%d pass %d: writing view %d's status bytes changed a neighbouring view", k, pass, v)
				}
				if pass == 1 && !slices.Equal(statusBytes(s.View(v)), built) {
					t.Fatalf("k=%d: writing overlay view %d's status bytes changed the set it overlays", k, v)
				}
				copy(views[v].meta, built)
			}
		}
		for v := 0; v+1 < len(s.views); v++ {
			lv := s.View(v)
			if cap(lv.members) != len(lv.members) || cap(lv.meta) != len(lv.meta) {
				t.Fatalf("k=%d: view %d's slices have spare capacity (%d/%d members, %d/%d status bytes): an append would write into the slab",
					k, v, len(lv.members), cap(lv.members), len(lv.meta), cap(lv.meta))
			}
			next := slices.Clone(s.View(v + 1).Members())
			_ = append(lv.Members(), -1)
			if !slices.Equal(s.View(v+1).Members(), next) {
				t.Fatalf("k=%d: appending to view %d's members reached view %d", k, v, v+1)
			}
		}
	}
}

// TestSetOverlayAndResetRestoreFreshState marks a set and an overlay of it all
// over, and checks that Set.ResetStatus, and a new overlay of the marked set,
// both read like the set when it was built, on one worker or on three.
func TestSetOverlayAndResetRestoreFreshState(t *testing.T) {
	splitBuilds(t)
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, workers int }{{0, 1}, {1, 1}, {2, 1}, {0, 3}, {1, 3}, {2, 3}} {
		k := c.k
		var s Set
		NewBuilder().BuildAll(&s, net.G, k, MetricDegree, c.workers, nil, nil)
		var fresh [][]uint8
		for v := 0; v < len(s.views); v++ {
			fresh = append(fresh, statusBytes(s.View(v)))
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
		same("set under a marked overlay", viewsOf(&s))
		mark(viewsOf(&s))
		if slices.Equal(statusBytes(s.View(0)), fresh[0]) {
			t.Fatalf("k=%d: marking changed nothing", k)
		}
		same("overlay of a marked set", s.Overlay())
		s.ResetStatus()
		same("set after ResetStatus", viewsOf(&s))
	}
}

// FuzzSetMatchesNewLocal decodes a graph, a hop count, a worker count and a
// keep predicate from bytes — vertex count and predicate in one byte, k and
// workers in the next, then vertex pairs — and checks BuildAll against
// NewLocal on it, connected or not, on one to four workers, through a Builder
// and a Set that every input shares: every kept view equals NewLocal's, and
// every dropped one is absent. Predicate 0 keeps all (a nil skip and keep);
// the others drop vertex v when bit v%8 of input byte v·p mod len is set,
// through skip for even v and keep for odd v.
func FuzzSetMatchesNewLocal(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{9, 1, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6})
	f.Add([]byte{30, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 9, 10})
	f.Add([]byte{4, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 2})
	f.Add([]byte{64 + 30, 7, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 9, 10})
	f.Add([]byte{128 + 9, 16, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6})
	f.Add([]byte{192 + 12, 5, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 9, 10, 10, 11})
	splitBuilds(f)
	b, s := NewBuilder(), &Set{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k, workers := int(data[0])%64, int(data[1])%5, 1+int(data[1])/5%4
		var links [][2]int
		for i := 2; i+1 < len(data) && n > 0; i += 2 {
			links = append(links, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		g := buildGraph(t, n, dedupLinks(links))
		var drop func(int) bool
		if p := int(data[0]) / 64; p > 0 {
			drop = func(v int) bool { return data[v*p%len(data)]>>(v%8)&1 != 0 }
		}
		checkSetMatchesNewLocal(t, b, s, g, k, MetricDegree, workers, drop)
	})
}

// dedupLinks drops the self-loops and the repeats, in either orientation, of
// an edge list, keeping the first of each link in order, so that any byte
// string a fuzz decoder reads is a valid FromEdges input.
func dedupLinks(links [][2]int) [][2]int {
	seen := make(map[[2]int]bool, len(links))
	var out [][2]int
	for _, e := range links {
		key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if e[0] != e[1] && !seen[key] {
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

// TestBuildAllRestartsOnDisconnectedGraphs builds a hand-made graph of four
// components — a path, an isolated vertex, a triangle and an edge, with ids
// interleaved — whole and in two to four ranges: the BFS order starts over
// from the lowest unreached vertex of each component, and every view matches
// NewLocal.
func TestBuildAllRestartsOnDisconnectedGraphs(t *testing.T) {
	splitBuilds(t)
	g := buildGraph(t, 9, [][2]int{{0, 4}, {4, 7}, {1, 5}, {5, 8}, {8, 1}, {3, 6}})
	b, s := NewBuilder(), &Set{}
	if got, want := b.bfsOrder(g, nil), []int32{0, 4, 7, 1, 5, 8, 2, 3, 6}; !slices.Equal(got, want) {
		t.Fatalf("BFS order %v, want %v", got, want)
	}
	for _, k := range []int{0, 1, 2, 3} {
		for workers := 1; workers <= 4; workers++ {
			checkSetMatchesNewLocal(t, b, s, g, k, MetricDegree, workers, nil)
		}
	}
}

// TestSplitRebuildReusesTheSet rebuilds a 300-node set on three workers into
// the Set that served the same build: every block's slabs are reused, and the
// rebuild allocates nothing but its two helper goroutines' closures. So does
// a full → compacted → full cycle, a build keeping half the views between two
// keeping all, since every block of the compacted build fits in the full
// build's slabs.
func TestSplitRebuildReusesTheSet(t *testing.T) {
	splitBuilds(t)
	net, err := geo.Generate(geo.Config{N: 300, AvgDegree: 18}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	half := func(_ int, lv *Local) bool { return lv.Owner%2 == 0 }
	for _, k := range []int{0, 2} {
		b, s := NewBuilder(), &Set{}
		b.BuildAll(s, net.G, k, MetricDegree, 3, nil, nil)
		chunks := func() (out []*uint8) {
			for _, blk := range s.blocks {
				out = append(out, &blk.meta[0])
			}
			return out
		}
		before := chunks()
		allocs := testing.AllocsPerRun(20, func() { b.BuildAll(s, net.G, k, MetricDegree, 3, nil, nil) })
		if allocs > 2 {
			t.Errorf("k=%d: a split rebuild into a served set allocates %v objects, want at most one per helper (2)", k, allocs)
		}
		if !slices.Equal(chunks(), before) {
			t.Errorf("k=%d: a split rebuild replaced the set's slabs", k)
		}
		allocs = testing.AllocsPerRun(20, func() {
			b.BuildAll(s, net.G, k, MetricDegree, 3, nil, nil)
			b.BuildAll(s, net.G, k, MetricDegree, 3, nil, half)
			b.BuildAll(s, net.G, k, MetricDegree, 3, nil, nil)
		})
		if allocs > 6 {
			t.Errorf("k=%d: a split full → compacted → full cycle allocates %v objects, want at most one per helper and build (6)", k, allocs)
		}
		if !slices.Equal(chunks(), before) {
			t.Errorf("k=%d: a full → compacted → full cycle replaced the set's slabs", k)
		}
	}
}

// TestSmallBuildIsOneRange pins the production grain: a paper-sized
// network's BuildAll runs on the calling goroutine whatever the worker count
// — it makes no helper Builder and, warm, allocates nothing, so it starts no
// goroutine, and neither does a full → compacted → full cycle — while the
// simulator's 2000-node at-scale differential test splits in two on two
// cores.
func TestSmallBuildIsOneRange(t *testing.T) {
	if got := Ranges(2000, 2); got != 2 {
		t.Errorf("Ranges(2000, 2) = %d, want 2", got)
	}
	net, err := geo.Generate(geo.Config{N: 100, AvgDegree: 18}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, s := NewBuilder(), &Set{}
	b.BuildAll(s, net.G, 2, MetricID, 64, nil, nil)
	if len(b.helpers) != 0 {
		t.Fatalf("n=100: built with %d helpers, want 0", len(b.helpers))
	}
	if allocs := testing.AllocsPerRun(20, func() { b.BuildAll(s, net.G, 2, MetricID, 64, nil, nil) }); allocs != 0 {
		t.Errorf("n=100: a warm BuildAll with 64 workers allocates %v objects, want 0 (no goroutine)", allocs)
	}
	odd := func(_ int, lv *Local) bool { return lv.Owner%2 == 1 }
	if allocs := testing.AllocsPerRun(20, func() {
		b.BuildAll(s, net.G, 2, MetricID, 64, nil, nil)
		b.BuildAll(s, net.G, 2, MetricID, 64, nil, odd)
		b.BuildAll(s, net.G, 2, MetricID, 64, nil, nil)
	}); allocs != 0 {
		t.Errorf("n=100: a full → compacted → full cycle allocates %v objects, want 0", allocs)
	}
}
