package sim

import (
	"fmt"
	"sync/atomic"

	"adhocbcast/internal/core"
	"adhocbcast/internal/view"
)

// Settler is implemented by protocols whose coverage verdicts a node's
// pristine view settles. A broadcast only ever raises the statuses a view
// holds (un-visited < designated < visited, Section 2), and under a monotone
// condition more high-priority members only join more neighbors, so a node
// covered on its pristine view stays covered for as long as its own status
// stays un-visited: until it transmits, in an engine that designates no one
// (internal/core's TestPristineCoverageSettles proves this for the generic
// and the strong condition on every small world, and
// TestOwnDesignationBreaksSettling shows why a designating engine may not
// rely on it). The verdicts are therefore a property of the view set's key —
// topology, hops, metric and condition — not of the run. The simulator
// decides every node's pristine verdict once per view set, on every core, in
// the pass that builds the views, or adopts the verdicts another Arena's
// pass decided for the same key (Arena.Adopt), and hands the protocol the
// outcome through UseSettled. Under a protocol that also retires decided
// nodes' views (RetiresViews), a settled node never reads its view, so the
// set keeps only the views of unsettled nodes (Arena.viewsFor).
type Settler interface {
	// SettleCondition returns a positive id naming the protocol's coverage
	// condition and the condition itself, or id 0 when settled verdicts do
	// not hold for the protocol. Two protocols returning one id must
	// return the same condition. A positive id with a nil condition says
	// that no node is ever covered, so no node reads its view: under
	// RetiresViews the simulator then builds none. static reports that the
	// protocol decides every node on its pristine view at Init, which is the
	// settling build's own work; a protocol deciding later asks for
	// verdicts only where their parallel split pays (see Arena.viewsFor).
	SettleCondition() (id int, cond func(*NodeState, *core.Evaluator) bool, static bool)
	// UseSettled hands the protocol the run's settled verdicts, or nil when
	// it gets none. The simulator calls it before Init on every run and
	// traffic session; a live executor never does.
	UseSettled(s *Settled)
}

// Settled holds one view set's settled verdicts under one coverage condition:
// bit v is set when node v is covered on its pristine view. An Arena keeps
// one with its views, which it keys by (topology, hops, metric) and by the
// condition's id; Arena.KeepVerdicts hands out copies that carry the key
// with them. Its methods are safe for concurrent use.
type Settled struct {
	key  viewKey // the view set's key (handed-out copies only)
	id   int     // the condition's id; 0 when the Arena holds no verdicts
	cond func(*NodeState, *core.Evaluator) bool
	bits []uint64

	// The current run's verdicts that a set bit decided, that were
	// evaluated past a clear one, and that settling builds evaluated. Only
	// the package's tests read them (export_test.go).
	hits, evals, passEvals atomic.Int64
}

// Covered returns the verdict of the coverage condition for the node owning
// st, whose status is still un-visited: covered at once when its pristine
// verdict is, else the condition evaluated on ev. simdebug builds evaluate a
// settled verdict too, and panic if the view disagrees.
func (s *Settled) Covered(st *NodeState, ev *core.Evaluator) bool {
	if s.bits[st.ID>>6]>>(st.ID&63)&1 == 0 {
		s.evals.Add(1)
		return s.cond(st, ev)
	}
	s.hits.Add(1)
	if debugChecks {
		s.check(st, ev, true)
	}
	return true
}

// Pristine returns the verdict of the coverage condition on the pristine
// view of the node owning st: what a static protocol decides at Init. simdebug
// builds evaluate the view too, and panic if it disagrees.
func (s *Settled) Pristine(st *NodeState, ev *core.Evaluator) bool {
	c := s.bits[st.ID>>6]>>(st.ID&63)&1 != 0
	s.hits.Add(1)
	if debugChecks {
		s.check(st, ev, c)
	}
	return c
}

// check panics unless the condition evaluated on st's view gives the
// settled verdict.
func (s *Settled) check(st *NodeState, ev *core.Evaluator, settled bool) {
	if got := s.cond(st, ev); got != settled {
		panic(fmt.Sprintf("sim: node %d: settled verdict covered=%v, its view evaluates covered=%v", st.ID, settled, got))
	}
}

// viewsFor readies the Arena's view set over key for a run of protocol p —
// retire is RetiresViews(p), offered the verdicts Adopt offered the run —
// and returns it with the settled verdicts p may take (nil when none), or a
// nil set when p reads no view at all (a Settler with a nil condition, under
// retire). The set is the one the previous run left, its learned marks
// cleared, when its key repeats; otherwise a rebuild into the same memory on
// up to workers goroutines. The set's key is key, the id of the condition
// whose verdicts the set holds, and whether it dropped the views of settled
// nodes:
//   - p gets verdicts when it is a Settler with a condition, and it decides
//     every node at Init (static), or a view build of n nodes would split in
//     two (view.Ranges, whatever the core count), or the set holds its
//     condition's verdicts already, or an offered one is of key and its
//     condition: at paper sizes a later-deciding protocol's evaluations cost
//     less than settling every view, but more than adopting settled ones;
//   - a rebuild with verdicts takes the offered ones if it can, so it
//     evaluates nothing; else it settles every view as it builds it;
//   - a set with verdicts has no views of settled nodes when p retires
//     views, since it then reads none of them — except in simdebug builds,
//     where Settled.check evaluates every settled verdict, adopted or not, on
//     the view the broadcast actually left;
//   - any other run gets every view, with or without verdicts.
//
// On a hit, simdebug builds check that the key's topology — its pointer,
// not its content — still stands for the views.
func (a *Arena) viewsFor(key viewKey, workers int, p Protocol, retire bool, offered []*Settled) (*view.Set, *Settled) {
	var (
		id     int
		cond   func(*NodeState, *core.Evaluator) bool
		static bool
	)
	if st, ok := p.(Settler); ok {
		id, cond, static = st.SettleCondition()
	}
	if id != 0 && cond == nil && retire {
		return nil, nil
	}
	n := key.g.N()
	same := a.viewKey == key
	var adopt *Settled
	if id != 0 && cond != nil {
		for _, o := range offered {
			if o.key == key && o.id == id {
				adopt = o
				break
			}
		}
	}
	compact := false
	if id != 0 && cond != nil && (static || view.Ranges(n, n) > 1 || same && a.settled.id == id || adopt != nil) {
		compact = retire && !debugChecks
	} else {
		id = 0
	}
	if same && a.viewCompact == compact && (id == 0 || a.settled.id == id) {
		if debugChecks {
			if v := a.builder.Stale(&a.views); v >= 0 {
				panic(fmt.Sprintf("sim: the %d-hop view of node %d no longer matches its topology: a graph was changed in place between runs that share an Arena", key.hops, v))
			}
		}
		a.views.ResetStatus()
	} else {
		a.buildViews(key, workers, id, cond, compact, adopt)
	}
	if id == 0 {
		return &a.views, nil
	}
	return &a.views, &a.settled
}

// buildViews rebuilds the Arena's view set over key on up to workers
// goroutines. With a condition id it takes the verdicts of adopt, when
// non-nil, and compact then builds no settled node's view at all; or it
// settles each view as it is built: cond on the pristine view, with the build
// worker's own evaluator (the shared one on the calling goroutine) into a
// bitmap of the worker's own, merged when the build joins, and compact then
// drops every settled node's view, so the full set never exists.
func (a *Arena) buildViews(key viewKey, workers, id int, cond func(*NodeState, *core.Evaluator) bool, compact bool, adopt *Settled) {
	a.viewKey, a.viewCompact = key, compact
	vg, hops, metric := key.g, key.hops, key.metric
	s := &a.settled
	s.id, s.cond = id, cond
	if id == 0 {
		a.builder.BuildAll(&a.views, vg, hops, metric, workers, nil, nil)
		return
	}
	if adopt != nil {
		s.bits = append(s.bits[:0], adopt.bits...)
		var skip []uint64
		if compact {
			skip = s.bits
		}
		a.builder.BuildAll(&a.views, vg, hops, metric, workers, skip, nil)
		return
	}
	n := vg.N()
	r, words := view.Ranges(n, workers), (n+63)/64
	s.bits = resetBits(s.bits, words)
	for len(a.settleBits) < r-1 {
		a.settleBits = append(a.settleBits, nil)
	}
	for i := range a.settleBits[:r-1] {
		a.settleBits[i] = resetBits(a.settleBits[i], words)
	}
	if len(a.settleStates) < r {
		a.settleStates = make([]NodeState, r)
	}
	a.evaluator(n) // every worker's evaluator exists before the build starts them
	a.workerEvals(r-1, n)
	a.builder.BuildAll(&a.views, vg, hops, metric, workers, nil, func(w int, lv *view.Local) bool {
		st, ev, bits := &a.settleStates[w], a.eval, s.bits
		if w > 0 {
			ev, bits = a.wrkEval[w-1], a.settleBits[w-1]
		}
		st.ID, st.View = lv.Owner, lv
		if !cond(st, ev) {
			return true
		}
		bits[lv.Owner>>6] |= 1 << (lv.Owner & 63)
		return !compact
	})
	for _, bits := range a.settleBits[:r-1] {
		for i, w := range bits {
			s.bits[i] |= w
		}
	}
	s.passEvals.Add(int64(n))
}

// resetBits returns an all-zero bitmap of words words in b's memory when it
// is large enough.
func resetBits(b []uint64, words int) []uint64 {
	if cap(b) < words {
		return make([]uint64, words)
	}
	b = b[:words]
	clear(b)
	return b
}
