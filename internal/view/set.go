package view

// Set holds the local views of the nodes of one (topology, hops, metric),
// built by Builder.BuildAll: per block of the build's BFS order, the kept
// views and the slabs their member ids and status bytes are sub-slices of
// (global views share one member list), plus the header every view shares:
// the topology, the base priorities they read and the hop count. A build may
// keep only some views (BuildAll's skip and keep); a view it dropped is
// absent (View returns nil) and holds no memory.
// Rebuilding into a Set that has served a build of the size whose blocks
// kept at least as many views and members allocates nothing. The zero value
// is an empty set. Distinct views of a Set may be marked from distinct
// goroutines.
type Set struct {
	views  []*Local // indexed by node: its view in its block, nil where dropped
	h      *header  // rewritten in place by each build
	ident  []int32  // the member list global views share
	blocks []block  // one per claimGrain vertices of the last build's BFS order; capacity keeps earlier ones'
	total  int      // members over the kept views
}

// block is what one block of a build's BFS order keeps — its views, their
// member ids and their status bytes — each sized exactly to it and reused by
// the next build wherever it is large enough.
type block struct {
	views []Local
	ids   []int32
	meta  []uint8
}

// View returns node v's view, or nil when the last BuildAll dropped it.
// Valid until the next BuildAll into s. Callers mark the view and must not
// otherwise write to it.
func (s *Set) View(v int) *Local { return s.views[v] }

// ResetStatus clears every status override of every kept view, returning the
// set to its freshly built state, in one pass over the status slabs.
func (s *Set) ResetStatus() {
	for _, b := range s.blocks {
		for i := range b.meta {
			b.meta[i] &^= metaStatusMask
		}
	}
}

// Overlay returns copies of the views, indexed by node, over a status slab
// of their own: they read like the freshly built set and are marked
// independently of it; a dropped view's copy is the zero Local, which no
// method may be called on. This is what one session of a traffic run costs
// in views — two allocations.
func (s *Set) Overlay() []Local {
	views, meta := make([]Local, len(s.views)), make([]uint8, s.total)
	for v, lv := range s.views {
		if lv == nil {
			continue
		}
		m := copy(meta, lv.meta)
		for i := range meta[:m] {
			meta[i] &^= metaStatusMask
		}
		views[v] = *lv
		views[v].meta, meta = meta[:m:m], meta[m:]
	}
	return views
}

// fit returns s resized to n entries, in its own memory when it is large
// enough; its contents are left for the caller to overwrite.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
