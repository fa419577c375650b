package view

import (
	"slices"

	"adhocbcast/internal/graph"
)

// Builder constructs Local views with reusable bounded-BFS scratch, so that
// building all n views of a run costs O(Σ|Nk(v)|·deg) time and only the
// views' own member arrays in memory. A Builder is not safe for concurrent
// use; create one per goroutine.
type Builder struct {
	dist  []int32 // per-vertex BFS distance, -1 when untouched
	queue []int32 // BFS frontier; doubles as the touched list for cleanup
}

// NewBuilder returns an empty Builder; scratch grows on first use.
func NewBuilder() *Builder { return &Builder{} }

// Build constructs the k-hop local view of owner over g with the given
// shared base priorities, in memory of its own. k <= 0 yields the global
// view. The base slice is retained by the view (views overlay status changes
// on top of it).
func (b *Builder) Build(g *graph.Graph, owner, k int, base []Priority) *Local {
	m := b.reach(g, owner, k)
	lv := &Local{Owner: owner, Hops: k, topo: g, base: base, global: k <= 0,
		members: make([]int32, m), meta: make([]uint8, m)}
	b.fill(lv.members, lv.meta, g.N(), k)
	return lv
}

// BuildAll builds the k-hop view of every vertex of g under metric into s,
// replacing what s held and reusing its memory: once s has served a run of
// the size, a rebuild allocates nothing.
func (b *Builder) BuildAll(s *Set, g *graph.Graph, k int, metric Metric) {
	n := g.N()
	s.base = basePriorities(s.base, g, metric)
	if cap(s.views) < n {
		s.views = make([]Local, n)
	}
	clear(s.views[:cap(s.views)][n:]) // a view left over from a larger run pins its topology
	s.views = s.views[:n]
	s.ids, s.meta, s.total = slab[int32]{chunks: s.ids.chunks}, slab[uint8]{chunks: s.meta.chunks}, 0
	var ident []int32 // global views share one member list
	if k <= 0 {
		ident = s.ids.take(n, n)
	}
	for v := 0; v < n; v++ {
		m := b.reach(g, v, k)
		// A new chunk is sized to what the rest of the run needs at the
		// average view size so far.
		s.total += m
		hint := (n - v) * (s.total/(v+1) + 1)
		meta, members := s.meta.take(m, hint), ident
		if k > 0 {
			members = s.ids.take(m, hint)
		}
		b.fill(members, meta, n, k)
		s.views[v] = Local{Owner: v, Hops: k, topo: g, base: s.base, global: k <= 0,
			members: members, meta: meta}
	}
}

// Stale searches every view of s again and returns the first node whose
// members or fringe no longer match its topology — the graph was edited after
// the set was built — or -1. It allocates nothing.
func (b *Builder) Stale(s *Set) int {
	for v := range s.views {
		lv := &s.views[v]
		if lv.global {
			continue // every vertex, whatever the edges
		}
		ok := b.reach(lv.topo, v, lv.Hops) == len(lv.members)
		for i, x := range lv.members {
			ok = ok && b.dist[x] >= 0 && (int(b.dist[x]) == lv.Hops) == lv.FringeAt(i)
		}
		if !ok {
			return v
		}
	}
	return -1
}

// reach finds Nk(owner) by bounded BFS, leaving it in b.queue in discovery
// order with the distances in b.dist until the next search, and returns its
// size. The global view (k <= 0) searches nothing: every vertex is a member.
func (b *Builder) reach(g *graph.Graph, owner, k int) int {
	n := g.N()
	if k <= 0 {
		return n
	}
	for len(b.dist) < n {
		b.dist = append(b.dist, -1)
	}
	for _, x := range b.queue {
		b.dist[x] = -1
	}
	b.queue = b.queue[:0]
	if owner >= 0 && owner < n {
		b.dist[owner] = 0
		b.queue = append(b.queue, int32(owner))
	}
	for head := 0; head < len(b.queue); head++ {
		x := int(b.queue[head])
		d := b.dist[x]
		if int(d) >= k {
			continue
		}
		g.ForEachNeighbor(x, func(y int) {
			if b.dist[y] < 0 {
				b.dist[y] = d + 1
				b.queue = append(b.queue, int32(y))
			}
		})
	}
	return len(b.queue)
}

// fill writes what reach found — the members in ascending id order, and for
// each its fringe bit under a cleared status — into members and meta, both of
// reach's length. A view holding an eighth of the graph or more (most views
// of the paper's n <= 100 networks) is read off the distance array, already
// in id order; a smaller one is sorted. A global view gets the identity (the
// shared list is rewritten as it was).
func (b *Builder) fill(members []int32, meta []uint8, n, k int) {
	clear(meta)
	if k <= 0 {
		for i := range members {
			members[i] = int32(i)
		}
		return
	}
	if len(members)*8 >= n {
		members = members[:0]
		for x, d := range b.dist[:n] {
			if d >= 0 {
				members = append(members, int32(x))
			}
		}
	} else {
		copy(members, b.queue)
		slices.Sort(members)
	}
	for i, x := range members {
		if int(b.dist[x]) == k {
			meta[i] = metaFringe
		}
	}
}
