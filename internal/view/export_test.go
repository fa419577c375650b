package view

// IsVisible reports whether x is a member of the view.
func (lv *Local) IsVisible(x int) bool { return lv.memberIndex(x) >= 0 }

// Degree returns the number of view-neighbors of x.
func (lv *Local) Degree(x int) int {
	i := lv.memberIndex(x)
	if i < 0 {
		return 0
	}
	if lv.h.global || !lv.FringeAt(i) {
		// A non-fringe member is within k-1 hops, so all its topology
		// neighbors are members and every incident link is in the view.
		return lv.h.topo.Degree(x)
	}
	deg := 0
	lv.ForEachNeighbor(x, func(int) { deg++ })
	return deg
}
