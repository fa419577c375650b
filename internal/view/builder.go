package view

import (
	"slices"
	"sync"
	"sync/atomic"

	"adhocbcast/internal/graph"
)

// Builder constructs Local views with reusable bounded-BFS scratch, so that
// building all n views of a run costs O(Σ|Nk(v)|·deg) time and only the
// views' own member arrays in memory. Build runs on the calling goroutine
// and uses its scratch, so one Builder serves one caller at a
// time; BuildAll spreads its blocks over helper Builders of its own.
type Builder struct {
	dist  []int32 // per-vertex BFS distance, -1 when untouched
	queue []int32 // BFS frontier; doubles as the touched list for cleanup

	// BuildAll scratch: the BFS order, the next unclaimed block of it, one
	// helper Builder per worker after the first, which is this Builder; and,
	// per worker, the block being built (its kept views' ids, status bytes
	// and headers), the view handed to keep, and the members kept.
	order   []int32
	next    atomic.Int64
	helpers []*Builder
	wg      sync.WaitGroup
	ids     []int32
	meta    []uint8
	kept    []Local
	lv      Local
	members int
}

// buildGrain is the fewest vertices per worker of a BuildAll, so a
// build splits only when every worker is worth a goroutine: at d = 18, k = 2
// 1000 views are about 10 ms of work, against microseconds to start a
// goroutine and 4n bytes of helper scratch. No paper-sized network
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

// claimGrain is how many vertices of the BFS order one block of a BuildAll
// holds: the unit a worker claims at a time, enough to amortise the claim,
// few enough that a worker whose core is busy elsewhere holds up the join by
// little. It is a variable only so that the package's tests can lower it and
// cut small graphs into many blocks.
var claimGrain = 256

// BuildAll builds the k-hop view of every vertex of g under metric into s,
// replacing what s held and reusing its memory, and keeps the views keep
// accepts; a nil keep keeps all. A vertex whose bit is set in skip (a bitmap
// of n bits, or nil) gets no view at all: it is passed over before its
// neighbourhood is searched, and keep is never offered it. It visits the
// vertices in BFS order, so consecutive builds search overlapping
// neighbourhoods and neighbours' views sit side by side in the slabs, cut into
// blocks of claimGrain vertices that Ranges(n, workers) workers claim one at a
// time: the calling goroutine as worker 0 and each other on a goroutine of its
// own (a graph under 2·buildGrain vertices has one worker and starts none). A
// worker builds a block's views into scratch of its own, calls keep(worker,
// view) on each — the view is valid during the call only, and keep may read it
// from its worker's goroutine — and copies the views kept into the block's
// slabs, so a view keep drops never holds memory of the Set. Once s has served
// a build of the size whose blocks kept at least as much, a rebuild allocates
// nothing but its helper goroutines. Every view kept is the one Build would
// return, whatever the split.
func (b *Builder) BuildAll(s *Set, g *graph.Graph, k int, metric Metric, workers int, skip []uint64, keep func(worker int, lv *Local) bool) {
	n := g.N()
	if s.h == nil {
		s.h = &header{}
	}
	*s.h = header{topo: g, base: basePriorities(s.h.base, g, metric), hops: k, global: k <= 0}
	s.views = fit(s.views, n)
	clear(s.views[:cap(s.views)]) // a dropped view must read absent
	s.ident = s.ident[:0]
	if k <= 0 {
		s.ident = fit(s.ident, n)[:n:n]
		for i := range s.ident {
			s.ident[i] = int32(i)
		}
	}
	b.order = b.bfsOrder(g, b.order[:0])
	nb := (n + claimGrain - 1) / claimGrain
	if cap(s.blocks) < nb {
		s.blocks = append(s.blocks[:cap(s.blocks)], make([]block, nb-cap(s.blocks))...)
	}
	s.blocks = s.blocks[:nb]
	r := Ranges(n, workers)
	for len(b.helpers) < r-1 {
		b.helpers = append(b.helpers, NewBuilder())
	}
	b.next.Store(0)
	b.wg.Add(r - 1)
	for i := 1; i < r; i++ {
		go func() {
			defer b.wg.Done()
			b.helpers[i-1].buildBlocks(s, g, k, b.order, &b.next, i, skip, keep)
		}()
	}
	b.buildBlocks(s, g, k, b.order, &b.next, 0, skip, keep)
	b.wg.Wait()
	// Which worker claims which block varies from build to build, so every
	// worker's scratch grows to the largest any of them needed: a rebuild
	// then allocates none, whoever builds the largest block.
	s.total = b.members
	ids, meta, kept := cap(b.ids), cap(b.meta), cap(b.kept)
	for _, h := range b.helpers[:r-1] {
		s.total += h.members
		ids, meta, kept = max(ids, cap(h.ids)), max(meta, cap(h.meta)), max(kept, cap(h.kept))
	}
	b.growScratch(ids, meta, kept)
	for _, h := range b.helpers[:r-1] {
		h.growScratch(ids, meta, kept)
	}
}

// growScratch gives b's block scratch room for ids member ids, meta status
// bytes and kept views, exactly, so that the workers' capacities settle.
func (b *Builder) growScratch(ids, meta, kept int) {
	b.ids, b.meta, b.kept = fit(b.ids, ids)[:0], fit(b.meta, meta)[:0], fit(b.kept, kept)[:0]
}

// Ranges is how many workers BuildAll spreads an n-vertex graph over under a
// budget of workers goroutines: one per worker, as long as each has at least
// buildGrain vertices to build, and always at least one.
func Ranges(n, workers int) int {
	if buildGrain > 0 {
		workers = min(workers, n/buildGrain)
	}
	return max(1, min(workers, n))
}

// buildBlocks is worker w of a BuildAll into s: it claims blocks of order
// through next until none is left, builds each block's views but those skip
// marks into b's scratch, moves those keep accepts (all, for a nil keep) into
// the block's slabs, points s's per-node entries at them, and counts their
// members in b.members.
func (b *Builder) buildBlocks(s *Set, g *graph.Graph, k int, order []int32, next *atomic.Int64, w int, skip []uint64, keep func(int, *Local) bool) {
	n := g.N()
	b.members = 0
	for {
		i := int(next.Add(1)) - 1
		if i >= len(s.blocks) {
			return
		}
		nodes := order[i*claimGrain : min((i+1)*claimGrain, n)]
		ids, meta, kept := b.ids[:0], b.meta[:0], b.kept[:0]
		for _, x := range nodes {
			v := int(x)
			if skip != nil && skip[v>>6]>>(v&63)&1 != 0 {
				continue
			}
			m := b.reach(g, v, k)
			meta = slices.Grow(meta, m)
			lv := Local{Owner: v, h: s.h, members: s.ident, meta: meta[len(meta) : len(meta)+m : len(meta)+m]}
			if k > 0 {
				ids = slices.Grow(ids, m)
				lv.members = ids[len(ids) : len(ids)+m : len(ids)+m]
				b.fill(lv.members, lv.meta, n, k)
			} else {
				clear(lv.meta)
			}
			if keep != nil {
				b.lv = lv
				if !keep(w, &b.lv) {
					continue
				}
			}
			// Kept: its slices move to the block's slabs once the block is
			// copied out of the scratch.
			kept = append(kept, lv)
			meta = meta[:len(meta)+m]
			if k > 0 {
				ids = ids[:len(ids)+m]
			}
		}
		b.ids, b.meta, b.kept = ids, meta, kept
		blk := &s.blocks[i]
		blk.ids, blk.meta = fit(blk.ids, len(ids)), fit(blk.meta, len(meta))
		copy(blk.ids, ids)
		copy(blk.meta, meta)
		blk.views = fit(blk.views, len(kept))
		clear(blk.views[len(kept):cap(blk.views)]) // they would pin replaced slabs
		off := 0
		for j, lv := range kept {
			m := len(lv.meta)
			if k > 0 {
				lv.members = blk.ids[off : off+m : off+m]
			}
			lv.meta = blk.meta[off : off+m : off+m]
			blk.views[j] = lv
			s.views[lv.Owner] = &blk.views[j]
			off += m
		}
		b.members += off
	}
}

// bfsOrder appends the vertices of g in BFS order from vertex 0, restarting
// from the lowest unreached vertex in each further component, to order and
// returns it. It leaves b's search scratch as reach expects it.
func (b *Builder) bfsOrder(g *graph.Graph, order []int32) []int32 {
	n := g.N()
	b.reach(g, -1, 1) // clear what the last search marked, grow dist to n
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
	return order
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
