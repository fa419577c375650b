package view

import (
	"math/rand"
	"slices"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/graph"
)

// checkSetMatchesNewLocal builds every k-hop view of g into s and checks each
// against the view NewLocal builds alone: same members, same fringe bits, and
// the same answers to HasEdge, Degree and Pr for every vertex (HasEdge along
// every topology link, which is where views differ from the graph).
func checkSetMatchesNewLocal(t *testing.T, b *Builder, s *Set, g *graph.Graph, k int, metric Metric) {
	t.Helper()
	n := g.N()
	b.BuildAll(s, g, k, metric)
	if len(s.Views()) != n {
		t.Fatalf("n=%d k=%d: set has %d views", n, k, len(s.Views()))
	}
	base := BasePriorities(g, metric)
	for v := 0; v < n; v++ {
		got, want := &s.Views()[v], NewLocal(g, v, k, base)
		if got.Owner != v || got.Hops != k || got.N() != n {
			t.Fatalf("n=%d k=%d: view %d has owner %d, hops %d, n %d", n, k, v, got.Owner, got.Hops, got.N())
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
// global, 1-, 2- and 3-hop views — through one Builder and one Set, so every
// build but the first lands in slabs a different size, depth and density left
// behind, and both of fill's member orders (read off the distance array,
// sorted) are hit.
func TestSetMatchesNewLocalGeo(t *testing.T) {
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
				checkSetMatchesNewLocal(t, b, s, net.G, k, MetricDegree)
			}
		}
	}
}

// statusBytes reads every status byte of the view, fringe bit included.
func statusBytes(lv *Local) []uint8 { return slices.Clone(lv.meta) }

// TestSetMarksAreIsolated checks that views cut from one slab do not share a
// byte: with every status byte of view v overwritten, its neighbours in the
// slab, and the set a session overlay was taken from, read as before; and a
// view's member slice has no capacity to append into the next view's.
func TestSetMarksAreIsolated(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 40, AvgDegree: 6}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 2} {
		var s Set
		NewBuilder().BuildAll(&s, net.G, k, MetricID)
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
// both read like the set when it was built.
func TestSetOverlayAndResetRestoreFreshState(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 6}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2} {
		var s Set
		NewBuilder().BuildAll(&s, net.G, k, MetricDegree)
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

// FuzzSetMatchesNewLocal decodes a graph and a hop count from bytes — vertex
// count, k, then vertex pairs — and checks BuildAll against NewLocal on it,
// connected or not, through a Builder and a Set that every input shares.
func FuzzSetMatchesNewLocal(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{9, 1, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6})
	f.Add([]byte{30, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 9, 10})
	f.Add([]byte{4, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 2})
	b, s := NewBuilder(), &Set{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := int(data[0])%64, int(data[1])%5
		g := graph.New(n)
		for i := 2; i+1 < len(data) && n > 0; i += 2 {
			_ = g.AddEdge(int(data[i])%n, int(data[i+1])%n) // loops and repeats are refused
		}
		checkSetMatchesNewLocal(t, b, s, g, k, MetricDegree)
	})
}
