package core

import (
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// Evaluator evaluates the coverage conditions with reusable scratch state.
// The one-shot package functions (Covered, StrongCovered) build that scratch
// per call; inside a simulation those conditions run once per node decision
// per receipt, so a simulation holds one Evaluator (see
// sim.Runtime.Evaluator) and reuses its buffers across all node decisions of
// the run. The zero Evaluator is ready to use and grows on demand.
//
// Every condition runs on one kernel of neighbor bit-rows. The
// higher-priority members H of the view are contracted into components by
// union-find, meeting each view edge once (contract). One walk over the
// adjacency lists of the owner's d neighbors (joined) then gives neighbor i
// an adjacency row — bit j set when j is i or view-adjacent to it — and sets
// bit i in the cover row of every H-component that i is in or view-adjacent
// to. Once i is walked, bits 0..i of those rows are final, so the walk settles
// every pair (j, i), j < i, on the spot and stops at the first failure: the
// generic condition needs i's adjacency row OR-ed with i's cover rows to hold
// bits 0..i, the strong condition needs ONE of i's cover rows to hold them
// alone. The OR is taken per neighbor and never closed transitively: a pair
// is joined by a direct link or through one shared component, because a
// lower-priority neighbor may end a replacement path but never be one of its
// intermediates.
//
// A decision costs O(|Nk| + Σ deg + d·c·⌈d/64⌉) time, the sum running over
// the non-fringe members of H and the owner's neighbors (with 2-hop views the
// former are among the latter, so it is about d²) and c being the number of
// components touching one neighbor. No term depends on the node count n and
// no step searches: the one n-sized array is the slot index, whose touched
// entries are restored after every evaluation, so an evaluator shared by a
// million-node run costs O(n) memory once, and the rows take
// O((1 + components)·⌈d/64⌉) words.
//
// An Evaluator is NOT safe for concurrent use; concurrent simulations must
// each hold their own. Every evaluation restores its scratch before
// returning, so results never depend on what the evaluator computed before —
// the equivalence with a fresh evaluator per call is asserted by tests.
type Evaluator struct {
	// slot is the one n-sized array, indexed by global id: 0 for a
	// non-member, else everything an adjacency walk asks about a member in
	// one load — its member index + 1 in the low 32 bits, slotH when it is
	// in H, slotFringe when it is on the view's fringe, and bit slotNbrBit
	// with its position among the owner's neighbors when it is one.
	slot []uint64

	// Everything below lives in member-index space (positions in
	// lv.Members(), which ascend with the global id), inside |Nk|-sized
	// prefixes that stay cache-resident.
	hMembers []int // members of H
	uf       *graph.UnionFind
	dist     []int32 // BFS scratch for the restricted condition, -1 idle
	queue    []int
	nbrs     []int   // the owner's neighbors, ascending
	lists    [][]int // their adjacency lists, fetched together up front

	// Neighbor bit-rows (see joined), words words each: row is the adjacency
	// row of the neighbor being walked and mine lists the offsets in cov of
	// the cover rows that hold it; cov is the flat arena of cover rows in
	// order of first touch, rowOf maps a component root to its row's offset
	// (-1 idle) and touched lists those roots for cleanup.
	row, cov []uint64
	words    int
	mine     []int
	rowOf    []int
	touched  []int
}

// Flags and fields of a slot above the member index.
const (
	slotH      = 1 << 32
	slotFringe = 1 << 33
	slotNbrBit = 34 // set for a neighbor of the owner, its position from slotPos up
	slotPos    = 35
)

// memberOf returns the member index packed in a non-zero slot.
func memberOf(s uint64) int { return int(uint32(s)) - 1 }

// NewEvaluator returns an evaluator sized for graphs of up to n nodes. It
// grows automatically if handed a larger view.
func NewEvaluator(n int) *Evaluator {
	ev := &Evaluator{}
	ev.ensure(n, 0)
	return ev
}

// ensure sizes the slots for n nodes and the member-indexed scratch for
// views of m members; the latter doubles so that a run over views of
// creeping sizes reallocates a handful of times.
func (ev *Evaluator) ensure(n, m int) {
	if n > len(ev.slot) {
		ev.slot = make([]uint64, n)
	}
	if m <= len(ev.dist) {
		return
	}
	m = max(m, 2*len(ev.dist))
	ev.uf = graph.NewUnionFind(m)
	ev.dist = make([]int32, m)
	ev.rowOf = make([]int, m)
	for i := 0; i < m; i++ {
		ev.dist[i], ev.rowOf[i] = -1, -1
	}
}

// begin fills the slots of the view's members and collects the owner's view
// neighbors: the owner is at distance 0 and never on the fringe, so these
// are exactly its topology neighbors that are members. Their adjacency lists
// are fetched here, back to back, so that the cache misses overlap instead
// of each waiting for the walk to reach it.
func (ev *Evaluator) begin(lv *view.Local) []int {
	members := lv.Members()
	ev.ensure(lv.N(), len(members))
	for i, x := range members {
		s := uint64(i + 1)
		if lv.FringeAt(i) {
			s |= slotFringe
		}
		ev.slot[x] = s
	}
	ev.nbrs = ev.nbrs[:0]
	ev.lists = ev.lists[:0]
	topo := lv.Topo()
	for _, y := range topo.Adj(lv.Owner) {
		if s := ev.slot[y]; s != 0 {
			ev.slot[y] = s | 1<<slotNbrBit | uint64(len(ev.nbrs))<<slotPos
			ev.nbrs = append(ev.nbrs, memberOf(s))
			ev.lists = append(ev.lists, topo.Adj(y))
		}
	}
	return ev.nbrs
}

// end restores the scratch touched by begin and the H computation, and lets
// go of the topology's adjacency lists.
func (ev *Evaluator) end(lv *view.Local) {
	for _, x := range lv.Members() {
		ev.slot[x] = 0
	}
	ev.hMembers = ev.hMembers[:0]
	clear(ev.lists)
}

// addH puts the member at index x into H.
func (ev *Evaluator) addH(lv *view.Local, x int) {
	ev.slot[lv.Members()[x]] |= slotH
	ev.hMembers = append(ev.hMembers, x)
}

// Covered is the generic coverage condition of Section 3 (see the package
// function Covered) evaluated with this evaluator's scratch.
func (ev *Evaluator) Covered(lv *view.Local) bool {
	return ev.covered(lv, true)
}

// CoveredWithoutVisitedUnion is the generic coverage condition evaluated
// WITHOUT the assumption that all visited nodes are connected through the
// source: visited nodes only join a replacement path through links actually
// visible in the view. It exists for ablation — quantifying how much of the
// condition's pruning power comes from the visited-union assumption
// (Figure 6(b) in the paper) — and remains sound, merely more conservative.
func (ev *Evaluator) CoveredWithoutVisitedUnion(lv *view.Local) bool {
	return ev.covered(lv, false)
}

func (ev *Evaluator) covered(lv *view.Local, mergeVisited bool) bool {
	nbrs := ev.begin(lv)
	ok := true
	if len(nbrs) > 1 {
		ev.higherComponents(lv, mergeVisited)
		ok = ev.joined(lv, nbrs, false)
	}
	ev.end(lv)
	return ok
}

// StrongCovered is the strong coverage condition of Section 6 evaluated with
// this evaluator's scratch.
func (ev *Evaluator) StrongCovered(lv *view.Local) bool {
	nbrs := ev.begin(lv)
	ok := true
	if len(nbrs) > 0 {
		ev.higherComponents(lv, true)
		ok = ev.joined(lv, nbrs, true)
	}
	ev.end(lv)
	return ok
}

// StrongCoveredRestricted is the strong coverage condition with the
// coverage set restricted to nodes within maxDist hops of the owner (in the
// view's topology). It models the paper's restricted Rule-k implementation:
// with 2-hop information the coverage nodes must be neighbors (maxDist 1),
// with 3-hop information they may be neighbors' neighbors (maxDist 2). The
// coverage nodes must be self-connected, i.e. connected using only nodes of
// the restricted set.
func (ev *Evaluator) StrongCoveredRestricted(lv *view.Local, maxDist int) bool {
	nbrs := ev.begin(lv)
	ok := true
	if len(nbrs) > 0 {
		o := memberOf(ev.slot[lv.Owner])
		prv := lv.PrAt(o)
		// View-BFS bounded to maxDist: nodes farther than maxDist cannot
		// enter H, so distances beyond the bound are never needed.
		ev.viewDistances(lv, o, maxDist)
		for _, x := range ev.queue {
			if ev.dist[x] >= 1 && lv.PrAt(x).Greater(prv) {
				ev.addH(lv, x)
			}
			ev.dist[x] = -1
		}
		ev.contract(lv, true)
		ok = ev.joined(lv, nbrs, true)
	}
	ev.end(lv)
	return ok
}

// higherComponents puts the members of the higher-priority subgraph H into
// the slots and ev.hMembers and contracts H's connected components into
// ev.uf.
func (ev *Evaluator) higherComponents(lv *view.Local, mergeVisited bool) {
	o := memberOf(ev.slot[lv.Owner])
	prv := lv.PrAt(o)
	for i := range lv.Members() {
		if i != o && lv.PrAt(i).Greater(prv) {
			ev.addH(lv, i)
		}
	}
	ev.contract(lv, mergeVisited)
}

// contract unions H members along view edges (and all visited members into
// one component when mergeVisited is set), resetting their union-find
// entries first. By Definition 2 every view edge has a non-fringe endpoint,
// so walking the adjacency of the non-fringe H members alone meets every
// H-H view edge, once: from the lower endpoint when both are non-fringe,
// from the non-fringe one otherwise.
func (ev *Evaluator) contract(lv *view.Local, mergeVisited bool) {
	ev.uf.ResetSubset(ev.hMembers)
	members, topo := lv.Members(), lv.Topo()
	firstVisited := -1
	for _, x := range ev.hMembers {
		if mergeVisited && lv.StatusAt(x) == view.Visited {
			if firstVisited < 0 {
				firstVisited = x
			} else {
				ev.uf.Union(firstVisited, x)
			}
		}
		if lv.FringeAt(x) {
			continue
		}
		xg := int(members[x])
		for _, y := range topo.Adj(xg) {
			if s := ev.slot[y]; s&slotH != 0 && (y > xg || s&slotFringe != 0) {
				ev.uf.Union(x, memberOf(s))
			}
		}
	}
}

// joined decides both conditions for nbrs (the owner's neighbors) from the H
// membership in the slots and its components in ev.uf, in one walk over the
// neighbors' adjacency lists. Walking neighbor i fills its adjacency row
// (itself and its view-adjacent neighbors) and sets bit i in the cover row
// of every component it is in or view-adjacent to; links to non-members and
// between two fringe members are outside the view, exactly as in
// view.Local.HasEdge. Bits 0..i of i's own rows are final at that point, so
// the pairs (j, i), j < i, are settled at once and the first failure ends
// the walk. Generic: the adjacency row OR-ed with i's cover rows has bits
// 0..i — every earlier neighbor is linked to i or shares a component with
// it. Strong: one of i's cover rows has bits 0..i on its own — a single
// component still holds every neighbor so far.
func (ev *Evaluator) joined(lv *view.Local, nbrs []int, strong bool) bool {
	w := (len(nbrs) + 63) / 64
	ev.words = w
	ev.cov = ev.cov[:0]
	members := lv.Members()
	ok := true
	for i, u := range nbrs {
		ev.row = append(ev.row[:0], make([]uint64, w)...)
		row := ev.row
		row[i>>6] |= 1 << (i & 63)
		ev.mine = ev.mine[:0]
		ug := int(members[u])
		// A neighbor in H lies in one component, which also holds every H
		// member adjacent to it; any other neighbor touches the components
		// of its adjacent H members.
		us, list := ev.slot[ug], ev.lists[i]
		if us&slotH != 0 {
			ev.cover(u, i)
			if strong {
				list = nil // its links feed the adjacency row only
			}
		}
		for _, y := range list {
			s := ev.slot[y]
			if s == 0 || us&s&slotFringe != 0 {
				continue
			}
			// Branch-free: a non-neighbor has position 0 and ORs in nothing.
			j := s >> slotPos
			row[j>>6] |= (s >> slotNbrBit & 1) << (j & 63)
			if s&^us&slotH != 0 {
				ev.cover(memberOf(s), i)
			}
		}
		if !strong {
			ok = ev.allSet(i+1, row, ev.mine)
		} else {
			ok = false
			for _, r := range ev.mine {
				ok = ok || ev.allSet(i+1, ev.cov[r:], nil)
			}
		}
		if !ok {
			break
		}
	}
	for _, root := range ev.touched {
		ev.rowOf[root] = -1
	}
	ev.touched = ev.touched[:0]
	return ok
}

// cover sets bit i in the cover row of H member y's component, allocating
// the row on first touch and listing it in ev.mine once.
func (ev *Evaluator) cover(y, i int) {
	root := ev.uf.Find(y)
	r := ev.rowOf[root]
	if r < 0 {
		r = len(ev.cov)
		ev.cov = append(ev.cov, make([]uint64, ev.words)...)
		ev.rowOf[root] = r
		ev.touched = append(ev.touched, root)
	}
	if word, bit := &ev.cov[r+i>>6], uint64(1)<<(i&63); *word&bit == 0 {
		*word |= bit
		ev.mine = append(ev.mine, r)
	}
}

// allSet reports whether row, OR-ed with the cover rows at the given
// offsets, has its low p bits set.
func (ev *Evaluator) allSet(p int, row []uint64, covers []int) bool {
	for k := 0; k<<6 < p; k++ {
		acc := row[k]
		for _, r := range covers {
			acc |= ev.cov[r+k]
		}
		want := ^uint64(0)
		if k == p>>6 {
			want = 1<<(p&63) - 1
		}
		if acc&want != want {
			return false
		}
	}
	return true
}

// viewDistances fills ev.dist with hop distances from member src over the
// view's edges, bounded to maxDist hops; untouched entries stay -1. ev.queue
// lists the touched members for cleanup. Must run between begin and end (it
// relies on the slots).
func (ev *Evaluator) viewDistances(lv *view.Local, src, maxDist int) {
	ev.queue = append(ev.queue[:0], src)
	ev.dist[src] = 0
	members, topo := lv.Members(), lv.Topo()
	for head := 0; head < len(ev.queue); head++ {
		x := ev.queue[head]
		d := ev.dist[x]
		if int(d) >= maxDist {
			continue
		}
		xs := ev.slot[members[x]]
		for _, y := range topo.Adj(int(members[x])) {
			s := ev.slot[y]
			if s == 0 || xs&s&slotFringe != 0 || ev.dist[memberOf(s)] >= 0 {
				continue
			}
			ev.dist[memberOf(s)] = d + 1
			ev.queue = append(ev.queue, memberOf(s))
		}
	}
}
