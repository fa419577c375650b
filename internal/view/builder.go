package view

import (
	"slices"
	"sync"

	"adhocbcast/internal/graph"
)

// Builder constructs Local views with reusable bounded-BFS scratch, so that
// building all n views of a run costs O(Σ|Nk(v)|·deg) time and only the
// views' own member arrays in memory. Build and Stale run on the calling
// goroutine and share its scratch, so one Builder serves one caller at a
// time; BuildAll spreads its ranges over helper Builders of its own.
type Builder struct {
	dist  []int32 // per-vertex BFS distance, -1 when untouched
	queue []int32 // BFS frontier; doubles as the touched list for cleanup

	// BuildAll scratch: the vertices in BFS order, and one helper Builder
	// per range after the first, which this Builder builds itself.
	order   []int32
	helpers []*Builder
	wg      sync.WaitGroup
}

// buildGrain is the fewest vertices one range of a BuildAll holds, so a
// build splits only when every range is worth a goroutine: at d = 18, k = 2
// a range of 1000 views is about 10 ms of work, against microseconds to
// start its goroutine and 4n bytes of helper scratch. No paper-sized network
// (n <= 100) comes near it; n = 2000 splits in two on two cores. It is a
// variable only so that the package's tests can lower it and split small
// graphs.
var buildGrain = 1000

// NewBuilder returns an empty Builder; scratch grows on first use.
func NewBuilder() *Builder { return &Builder{} }

// Build constructs the k-hop local view of owner over g with the given
// shared base priorities, in memory of its own. k <= 0 yields the global
// view. The base slice is retained by the view (views overlay status changes
// on top of it).
func (b *Builder) Build(g *graph.Graph, owner, k int, base []Priority) *Local {
	m := b.reach(g, owner, k)
	lv := &Local{Owner: owner, h: &header{topo: g, base: base, hops: k, global: k <= 0},
		members: make([]int32, m), meta: make([]uint8, m)}
	b.fill(lv.members, lv.meta, g.N(), k)
	return lv
}

// BuildAll builds the k-hop view of every vertex of g under metric into s,
// replacing what s held and reusing its memory: once s has served a run of
// the size and worker count, a rebuild allocates nothing but its helper
// goroutines. It visits the vertices in BFS order, so consecutive builds
// search overlapping neighbourhoods and neighbours' views sit side by side in
// the slabs, and cuts that order into at most workers contiguous ranges of at
// least buildGrain vertices. Each range is built by its own Builder into its
// own slab chunks, the first on the calling goroutine and each other on a
// goroutine of its own; a graph under 2·buildGrain vertices is one range and
// starts none. Every view is the one Build would return, whatever the split.
func (b *Builder) BuildAll(s *Set, g *graph.Graph, k int, metric Metric, workers int) {
	n := g.N()
	if s.h == nil {
		s.h = &header{}
	}
	*s.h = header{topo: g, base: basePriorities(s.h.base, g, metric), hops: k, global: k <= 0}
	if cap(s.views) < n {
		s.views = make([]Local, n)
	}
	clear(s.views[:cap(s.views)][n:]) // a view left over from a larger run pins its topology
	s.views = s.views[:n]
	r := ranges(n, workers)
	if cap(s.parts) < r {
		s.parts = append(s.parts[:cap(s.parts)], make([]part, r-cap(s.parts))...)
	}
	s.parts = s.parts[:r]
	for i := range s.parts {
		p := &s.parts[i]
		p.ids, p.meta, p.total = slab[int32]{chunks: p.ids.chunks}, slab[uint8]{chunks: p.meta.chunks}, 0
	}
	ident := s.parts[0].identity(n, k)
	order := b.bfsOrder(g)
	for len(b.helpers) < r-1 {
		b.helpers = append(b.helpers, NewBuilder())
	}
	b.wg.Add(r - 1)
	for i := 1; i < r; i++ {
		go func() {
			defer b.wg.Done()
			b.helpers[i-1].buildRange(s, &s.parts[i], g, k, ident, order[i*n/r:(i+1)*n/r])
		}()
	}
	b.buildRange(s, &s.parts[0], g, k, ident, order[:n/r])
	b.wg.Wait()
	s.total = 0
	for i := range s.parts {
		s.total += s.parts[i].total
	}
}

// identity returns the one member list global views (k <= 0) share, the
// identity over n vertices in p's id slab; nil for k > 0.
func (p *part) identity(n, k int) []int32 {
	if k > 0 {
		return nil
	}
	ident := p.ids.take(n, n)
	for i := range ident {
		ident[i] = int32(i)
	}
	return ident
}

// ranges is how many ranges BuildAll cuts an n-vertex graph into under a
// budget of workers goroutines: one per worker, as long as each holds at
// least buildGrain vertices, and always at least one.
func ranges(n, workers int) int {
	if buildGrain > 0 {
		workers = min(workers, n/buildGrain)
	}
	return max(1, min(workers, n))
}

// buildRange builds the views of the vertices in nodes into s, their members
// and status bytes into p's slabs (global views share ident), and counts
// their members in p.total.
func (b *Builder) buildRange(s *Set, p *part, g *graph.Graph, k int, ident, nodes []int32) {
	n := g.N()
	for i, x := range nodes {
		v := int(x)
		m := b.reach(g, v, k)
		// A new chunk is sized to what the rest of the range needs at the
		// average view size so far.
		p.total += m
		hint := (len(nodes) - i) * (p.total/(i+1) + 1)
		meta, members := p.meta.take(m, hint), ident
		if k > 0 {
			members = p.ids.take(m, hint)
			b.fill(members, meta, n, k)
		} else {
			clear(meta)
		}
		s.views[v] = Local{Owner: v, h: s.h, members: members, meta: meta}
	}
}

// bfsOrder returns the vertices of g in BFS order from vertex 0, restarting
// from the lowest unreached vertex in each further component, in b.order
// until the next call. It leaves b's search scratch as reach expects it.
func (b *Builder) bfsOrder(g *graph.Graph) []int32 {
	n := g.N()
	b.reach(g, -1, 1) // clear what the last search marked, grow dist to n
	order := b.order[:0]
	for root := 0; root < n; root++ {
		if b.dist[root] >= 0 {
			continue
		}
		b.dist[root] = 0
		order = append(order, int32(root))
		for head := len(order) - 1; head < len(order); head++ {
			for _, y := range g.Adj(int(order[head])) {
				if b.dist[y] < 0 {
					b.dist[y] = 0
					order = append(order, y)
				}
			}
		}
	}
	for _, x := range order {
		b.dist[x] = -1
	}
	b.order = order
	return order
}

// Stale searches every view of s again and returns the first node whose
// members or fringe no longer match its topology — the graph was edited after
// the set was built — or -1. It allocates nothing.
func (b *Builder) Stale(s *Set) int {
	for v := range s.views {
		lv := &s.views[v]
		if lv.h.global {
			continue // every vertex, whatever the edges
		}
		ok := b.reach(lv.h.topo, v, lv.h.hops) == len(lv.members)
		for i, x := range lv.members {
			ok = ok && b.dist[x] >= 0 && (int(b.dist[x]) == lv.h.hops) == lv.FringeAt(i)
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
		for _, y := range g.Adj(x) {
			if b.dist[y] < 0 {
				b.dist[y] = d + 1
				b.queue = append(b.queue, y)
			}
		}
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
