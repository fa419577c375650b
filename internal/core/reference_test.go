package core_test

import (
	"slices"

	"adhocbcast/internal/view"
)

// refView is the test-side model of a local view that the reference
// conditions below are evaluated on: the member list and, per member, its
// view-neighbors, read once through the view's public iteration API (which
// applies the membership and fringe rules of Definition 2). Priorities are
// NOT captured: every reference call reads them from the live view, so one
// refView serves every broadcast state marked on its view afterwards.
//
// The references are deliberately naive — BFS-labelled components, explicit
// pair and domination loops — and share no code with core.Evaluator beyond
// the view types. They are the only other implementation of the conditions.
type refView struct {
	lv    *view.Local
	ids   []int   // members, ascending global id
	adj   [][]int // view-neighbors of each member, as positions in ids
	owner int     // position of the owner

	inH    []bool
	label  []int
	dist   []int
	queue  []int
	merged []bool
	sets   [][]int
}

func newRefView(lv *view.Local) *refView {
	rv := &refView{lv: lv}
	pos := make([]int, lv.N())
	lv.ForEachMember(func(x int) {
		pos[x] = len(rv.ids)
		rv.ids = append(rv.ids, x)
	})
	rv.adj = make([][]int, len(rv.ids))
	for p, x := range rv.ids {
		lv.ForEachNeighbor(x, func(y int) { rv.adj[p] = append(rv.adj[p], pos[y]) })
	}
	rv.owner = pos[lv.Owner]
	rv.inH = make([]bool, len(rv.ids))
	rv.label = make([]int, len(rv.ids))
	rv.dist = make([]int, len(rv.ids))
	return rv
}

// higher fills inH with the higher-priority members, optionally restricted
// to those within 1..maxDist view hops of the owner (maxDist <= 0: no
// restriction).
func (rv *refView) higher(maxDist int) {
	// Positions in ids are the view's member indices (both ascend with the
	// global id), which PrAt takes directly.
	prv := rv.lv.PrAt(rv.owner)
	for p := range rv.ids {
		rv.inH[p] = p != rv.owner && rv.lv.PrAt(p).Greater(prv)
	}
	if maxDist <= 0 {
		return
	}
	dist := rv.dist
	for p := range dist {
		dist[p] = -1
	}
	dist[rv.owner] = 0
	rv.queue = append(rv.queue[:0], rv.owner)
	for head := 0; head < len(rv.queue); head++ {
		p := rv.queue[head]
		for _, q := range rv.adj[p] {
			if dist[q] < 0 {
				dist[q] = dist[p] + 1
				rv.queue = append(rv.queue, q)
			}
		}
	}
	for p := range rv.inH {
		rv.inH[p] = rv.inH[p] && dist[p] >= 1 && dist[p] <= maxDist
	}
}

// components labels the connected components of the subgraph induced by inH
// (label -1 outside it) and returns their number. With union set, every
// component holding a visited member takes one shared label: visited nodes
// are connected through the source under any view.
func (rv *refView) components(union bool) int {
	for p := range rv.label {
		rv.label[p] = -1
	}
	next := 0
	for p := range rv.ids {
		if !rv.inH[p] || rv.label[p] >= 0 {
			continue
		}
		rv.label[p] = next
		rv.queue = append(rv.queue[:0], p)
		for head := 0; head < len(rv.queue); head++ {
			for _, r := range rv.adj[rv.queue[head]] {
				if rv.inH[r] && rv.label[r] < 0 {
					rv.label[r] = next
					rv.queue = append(rv.queue, r)
				}
			}
		}
		next++
	}
	if !union {
		return next
	}
	super := -1
	rv.merged = append(rv.merged[:0], make([]bool, next)...)
	for p := range rv.ids {
		if rv.inH[p] && rv.lv.PrAt(p).Status == view.Visited {
			rv.merged[rv.label[p]] = true
			if super < 0 {
				super = rv.label[p]
			}
		}
	}
	for p := range rv.label {
		if rv.label[p] >= 0 && rv.merged[rv.label[p]] {
			rv.label[p] = super
		}
	}
	return next
}

// touches reports whether member p is in component c or view-adjacent to it.
func (rv *refView) touches(p, c int) bool {
	if rv.inH[p] {
		return rv.label[p] == c
	}
	for _, q := range rv.adj[p] {
		if rv.inH[q] && rv.label[q] == c {
			return true
		}
	}
	return false
}

// refCovered is the generic coverage condition: every pair of the owner's
// neighbors has a direct link or touches a common component of H.
func (rv *refView) refCovered(union bool) bool {
	nbrs := rv.adj[rv.owner]
	if len(nbrs) <= 1 {
		return true
	}
	rv.higher(0)
	count := rv.components(union)
	for len(rv.sets) < len(nbrs) {
		rv.sets = append(rv.sets, nil)
	}
	for i, u := range nbrs {
		rv.sets[i] = rv.sets[i][:0]
		for c := 0; c < count; c++ {
			if rv.touches(u, c) {
				rv.sets[i] = append(rv.sets[i], c)
			}
		}
	}
	for i := range nbrs {
		for j := i + 1; j < len(nbrs); j++ {
			linked := slices.Contains(rv.adj[nbrs[i]], nbrs[j])
			shared := slices.ContainsFunc(rv.sets[i], func(c int) bool { return slices.Contains(rv.sets[j], c) })
			if !linked && !shared {
				return false
			}
		}
	}
	return true
}

// refStrongCovered is the strong coverage condition: one component of H
// (visited members merged) holds or is adjacent to every neighbor of the
// owner.
func (rv *refView) refStrongCovered() bool { return rv.dominated(0) }

// refStrongCoveredRestricted is the strong condition with H restricted to
// members within maxDist >= 1 view hops of the owner.
func (rv *refView) refStrongCoveredRestricted(maxDist int) bool { return rv.dominated(maxDist) }

func (rv *refView) dominated(maxDist int) bool {
	nbrs := rv.adj[rv.owner]
	if len(nbrs) == 0 {
		return true
	}
	rv.higher(maxDist)
	count := rv.components(true)
	for c := 0; c < count; c++ {
		all := true
		for _, u := range nbrs {
			all = all && rv.touches(u, c)
		}
		if all {
			return true
		}
	}
	return false
}
