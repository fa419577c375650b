package view

import (
	"slices"

	"adhocbcast/internal/graph"
)

// Local is the local view of one node: the k-hop topology subgraph Gk(owner)
// of Definition 2 together with a priority overlay recording the broadcast
// state the owner has learned (snooped or piggybacked). Nodes outside the
// view are invisible and carry the lowest priority, matching the paper's
// local-view model: Pr'(v) = Pr(v) for visible v, (0, id(v)) otherwise.
//
// The representation is compact: instead of n-sized visibility and priority
// vectors plus a materialized subgraph per view (O(n) memory per node, O(n²)
// per run), a view stores only the sorted member list Nk(owner) with one
// status byte per member, shares a header holding the topology, the
// immutable base-priority vector and the hop count with every other view of
// its build, and answers adjacency queries by filtering the underlying
// topology on the fly. A million-node run with k=2 views therefore costs
// O(Σ|Nk(v)|) = O(n·deg^k) total, not O(n²), and the per-view part is one
// 64-byte cache line.
type Local struct {
	// Owner is the node whose view this is.
	Owner int

	h *header // shared by every view of one build
	// members lists Nk(owner) in ascending global-id order. For a global
	// view it is the full vertex set.
	members []int32
	// meta is parallel to members: bits 0-1 hold the status override
	// (metaBase/metaDesignated/metaVisited) and bit 7 marks fringe members
	// (exactly k hops from the owner, whose mutual links are outside the
	// view by Definition 2).
	meta []uint8
}

// header is what every view of one build shares: one per Builder.Build,
// one per Set.
type header struct {
	topo *graph.Graph // underlying topology (not the view subgraph)
	base []Priority   // un-visited priorities, indexed by global id
	hops int          // the k the views were built with; 0 means global
	// global marks k <= 0 views: every vertex is a member, no fringe, and
	// memberIndex is the identity.
	global bool
}

// Status-override values stored in the low bits of meta.
const (
	metaBase       uint8 = 0 // no override: the shared base priority applies
	metaDesignated uint8 = 1
	metaVisited    uint8 = 2
	metaStatusMask uint8 = 0x03
	metaFringe     uint8 = 0x80
)

// NewLocal builds the k-hop local view of owner over g, starting from the
// given base (un-visited) priorities. k <= 0 yields the global view. Callers
// constructing many views should reuse a Builder instead.
func NewLocal(g *graph.Graph, owner, k int, base []Priority) *Local {
	return NewBuilder().Build(g, owner, k, base)
}

// N returns the number of vertices of the underlying topology (views keep
// the global vertex numbering).
func (lv *Local) N() int { return lv.h.topo.N() }

// Hops returns the k the view was built with; 0 means global.
func (lv *Local) Hops() int { return lv.h.hops }

// Topo returns the underlying topology graph. Its adjacency is NOT filtered
// by the view: callers iterating it must apply membership and fringe checks
// themselves (see ForEachNeighbor). Intended for performance-critical code
// such as the coverage evaluator.
func (lv *Local) Topo() *graph.Graph { return lv.h.topo }

// Members returns the view's member set Nk(owner) in ascending global-id
// order. The slice is owned by the view and must not be mutated.
func (lv *Local) Members() []int32 { return lv.members }

// memberIndex returns the position of global id x in members, or -1. It
// reads the topology of neither kind of view: a global view's members are
// the identity, and any id outside a k-hop view's sorted list, out of range
// or not, is not found by the search.
func (lv *Local) memberIndex(x int) int {
	if lv.h.global {
		if uint(x) < uint(len(lv.members)) {
			return x
		}
		return -1
	}
	lo, hi := 0, len(lv.members)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(lv.members[mid]) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(lv.members) && int(lv.members[lo]) == x {
		return lo
	}
	return -1
}

// FringeAt reports whether the member at index i is a fringe member
// (exactly k hops from the owner). Fringe members are visible, but links
// between two fringe members are outside the view.
func (lv *Local) FringeAt(i int) bool { return lv.meta[i]&metaFringe != 0 }

// StatusAt returns the status of the member at index i.
func (lv *Local) StatusAt(i int) Status {
	switch lv.meta[i] & metaStatusMask {
	case metaVisited:
		return Visited
	case metaDesignated:
		return Designated
	default:
		return lv.h.base[lv.members[i]].Status
	}
}

// PrAt returns the priority of the member at index i: the shared base
// priority with the view's status override applied.
func (lv *Local) PrAt(i int) Priority {
	p := lv.h.base[lv.members[i]]
	switch lv.meta[i] & metaStatusMask {
	case metaVisited:
		if p.Status < Visited {
			p.Status = Visited
		}
	case metaDesignated:
		if p.Status < Designated {
			p.Status = Designated
		}
	}
	return p
}

// Pr returns the priority of global id x under this view. Non-members carry
// the invisible (lowest) priority.
func (lv *Local) Pr(x int) Priority {
	i := lv.memberIndex(x)
	if i < 0 {
		return Priority{Status: Invisible, ID: x}
	}
	return lv.PrAt(i)
}

// Status returns the status of global id x under this view (Invisible for
// non-members).
func (lv *Local) Status(x int) Status {
	i := lv.memberIndex(x)
	if i < 0 {
		return Invisible
	}
	return lv.StatusAt(i)
}

// MarkVisited records that node v is known to have forwarded the broadcast
// packet. Invisible nodes are ignored: the owner knows no links for them, so
// they cannot participate in replacement paths anyway.
func (lv *Local) MarkVisited(v int) {
	i := lv.memberIndex(v)
	if i < 0 {
		return
	}
	if lv.meta[i]&metaStatusMask < metaVisited {
		lv.meta[i] = lv.meta[i]&^metaStatusMask | metaVisited
	}
}

// MarkDesignated records that node v was designated as a forward node by
// some neighbor. A node already known as visited keeps its higher status.
func (lv *Local) MarkDesignated(v int) {
	i := lv.memberIndex(v)
	if i < 0 {
		return
	}
	if lv.meta[i]&metaStatusMask < metaDesignated {
		lv.meta[i] = lv.meta[i]&^metaStatusMask | metaDesignated
	}
}

// IsVisited reports whether v is marked visited under this view.
func (lv *Local) IsVisited(v int) bool {
	i := lv.memberIndex(v)
	return i >= 0 && lv.StatusAt(i) == Visited
}

// CloneFresh returns an independent copy of the view with every status
// override cleared, sharing the immutable topology, base priorities, and
// member list with the original. Set.Overlay does this for a whole set.
func (lv *Local) CloneFresh() *Local {
	meta := make([]uint8, len(lv.meta))
	for i, m := range lv.meta {
		meta[i] = m &^ metaStatusMask
	}
	cp := *lv
	cp.meta = meta
	return &cp
}

// ResetStatus clears every status override, returning the view to its
// freshly built state (fringe information is topological and kept). Used to
// recycle views across runs that share a topology.
func (lv *Local) ResetStatus() {
	for i := range lv.meta {
		lv.meta[i] &^= metaStatusMask
	}
}

// ForEachMember calls fn for every member of the view in ascending
// global-id order.
func (lv *Local) ForEachMember(fn func(x int)) {
	for _, x := range lv.members {
		fn(int(x))
	}
}

// ForEachNeighbor calls fn for every view-neighbor of x in ascending order:
// topology neighbors that are members, excluding fringe-fringe links
// (Definition 2). Non-members have no view-neighbors.
func (lv *Local) ForEachNeighbor(x int, fn func(y int)) {
	i := lv.memberIndex(x)
	if i < 0 {
		return
	}
	if lv.h.global {
		lv.h.topo.ForEachNeighbor(x, fn)
		return
	}
	xf := lv.FringeAt(i)
	lv.h.topo.ForEachNeighbor(x, func(y int) {
		j := lv.memberIndex(y)
		if j < 0 || (xf && lv.FringeAt(j)) {
			return
		}
		fn(y)
	})
}

// HasEdge reports whether the link {u,w} is part of the view.
func (lv *Local) HasEdge(u, w int) bool {
	i := lv.memberIndex(u)
	if i < 0 {
		return false
	}
	j := lv.memberIndex(w)
	if j < 0 {
		return false
	}
	if !lv.h.global && lv.FringeAt(i) && lv.FringeAt(j) {
		return false
	}
	return lv.h.topo.HasEdge(u, w)
}

// Neighbors returns the owner's neighbor list under the view (which equals
// its true neighbor list whenever the view has at least one hop, since the
// owner is at distance 0 and never on the fringe).
func (lv *Local) Neighbors() []int {
	var out []int
	lv.ForEachNeighbor(lv.Owner, func(u int) { out = append(out, u) })
	return out
}

// TwoHopTargets returns N2(owner) \ (N(owner) ∪ {owner}): the 2-hop
// neighbors that neighbor-designating protocols must cover. The result is in
// ascending order.
func (lv *Local) TwoHopTargets() []int {
	seen := map[int]bool{lv.Owner: true}
	lv.ForEachNeighbor(lv.Owner, func(u int) { seen[u] = true })
	var out []int
	lv.ForEachNeighbor(lv.Owner, func(u int) {
		lv.ForEachNeighbor(u, func(w int) {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		})
	})
	// The nested iteration appends in neighbor order, not globally sorted.
	slices.Sort(out)
	return out
}
