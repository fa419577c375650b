package view

import "slices"

// Set holds the local views of every node of one (topology, hops, metric),
// built by Builder.BuildAll: one array of views whose member ids and status
// bytes are sub-slices of shared slabs, one pair per range of the build
// (global views share one member list), plus the header they share: the
// topology, the base priorities they read and the hop count.
// Rebuilding into a Set that has served a run of the size and range count
// allocates nothing. The zero value is an empty set. Distinct views of a Set
// may be marked from distinct goroutines.
type Set struct {
	views []Local
	order []int32 // the vertices in the BFS order of the last build
	h     *header // rewritten in place by each build
	parts []part  // one per range of the last build; capacity keeps earlier ones' chunks
	total int     // members over all views
}

// part is the slab pair one range of a build writes its views into.
type part struct {
	ids   slab[int32]
	meta  slab[uint8]
	total int // members over the range's views
}

// Views returns the views, indexed by node, valid until the next BuildAll
// into s. Callers mark them and must not otherwise write to them.
func (s *Set) Views() []Local { return s.views }

// Order returns the vertices in the order the last BuildAll visited them: BFS
// order, so neighbours' views sit side by side in the slabs and a pass over
// every view that follows it meets overlapping neighbourhoods in turn. Valid
// until the next BuildAll into s; callers must not write to it.
func (s *Set) Order() []int32 { return s.order }

// ResetStatus clears every status override of every view, returning the set
// to its freshly built state, in one pass over the status slabs.
func (s *Set) ResetStatus() {
	for _, p := range s.parts {
		for _, c := range p.meta.chunks[:min(p.meta.cur+1, len(p.meta.chunks))] {
			for i := range c {
				c[i] &^= metaStatusMask
			}
		}
	}
}

// Overlay returns copies of the views over a status slab of their own: they
// read like the freshly built set and are marked independently of it. This is
// what one session of a traffic run costs in views — two allocations.
func (s *Set) Overlay() []Local {
	views, meta := slices.Clone(s.views), make([]uint8, s.total)
	for v := range views {
		m := copy(meta, views[v].meta)
		for i := range meta[:m] {
			meta[i] &^= metaStatusMask
		}
		views[v].meta, meta = meta[:m:m], meta[m:]
	}
	return views
}

// slab hands out sub-slices of chunks that are never reallocated: a slice
// stays valid until BuildAll rewinds the slab to reuse the chunks.
type slab[T any] struct {
	chunks   [][]T
	cur, off int // next free entry: chunks[cur][off]
}

// take returns m entries with capacity m, so that appending to one view's
// slice cannot write into the next. A chunk too full for them is left behind;
// when none remains, one of hint entries is allocated — at least m, at most
// 1M (4 MiB of ids), so that a large slab grows in steps, never half empty.
func (s *slab[T]) take(m, hint int) []T {
	for s.cur < len(s.chunks) && len(s.chunks[s.cur])-s.off < m {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, max(m, min(hint, 1<<20))))
	}
	out := s.chunks[s.cur][s.off : s.off+m : s.off+m]
	s.off += m
	return out
}
