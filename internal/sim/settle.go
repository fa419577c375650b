package sim

import (
	"fmt"
	"sync"
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
// rely on it). The simulator then computes every node's pristine verdict once
// per view set, on every core (the settle pass), and hands the protocol the
// outcome through UseSettled.
type Settler interface {
	// SettleCondition returns a positive id naming the protocol's coverage
	// condition and the condition itself, or id 0 when settled verdicts do
	// not hold for the protocol. Two protocols returning one id must
	// return the same condition. static reports that the protocol decides
	// every node on its pristine view at Init, which is the settle pass's
	// own work; a protocol deciding later asks for a pass only where its
	// parallel split pays (see Network.offerSettled).
	SettleCondition() (id int, cond func(*NodeState, *core.Evaluator) bool, static bool)
	// UseSettled hands the protocol the run's settled verdicts, or nil when
	// it gets none. The simulator calls it before Init on every run and
	// traffic session; a live executor never does.
	UseSettled(s *Settled)
}

// Settled holds one view set's settled verdicts under one coverage condition:
// bit v is set when node v is covered on its pristine view. An Arena keeps
// one, keyed like its views by (topology, hops, metric) and by the
// condition's id, until it rebuilds the views or a run asks for another
// condition. Its methods are safe for concurrent use.
type Settled struct {
	id   int // the condition's id; 0 when the Arena holds no verdicts
	cond func(*NodeState, *core.Evaluator) bool
	bits []uint64

	// The current run's verdicts that a set bit decided, that were
	// evaluated past a clear one, and that settle passes evaluated. Only the
	// package's tests read them (export_test.go).
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

// settleChunk is how many nodes, in the view set's BFS order, a settle-pass
// worker claims at a time: enough to amortise the claim, few enough that a
// worker whose core is busy elsewhere holds up the join by little.
const settleChunk = 256

// settle runs the settle pass into s: cond on the pristine view of every node
// of views, in the set's BFS order, on the calling goroutine with the Arena's
// shared evaluator and on helper goroutines with private evaluators and
// bitmaps of their own, one goroutine per range a view build of the set would
// split into (view.Ranges), so a paper-sized pass starts none.
func (a *Arena) settle(s *Settled, views []view.Local, order []int32, workers int) {
	n := len(views)
	words := (n + 63) / 64
	r := view.Ranges(n, workers)
	for len(a.settleBits) < r-1 {
		a.settleBits = append(a.settleBits, nil)
	}
	s.bits = resetBits(s.bits, words)
	var next atomic.Int64 // the next unclaimed position of order
	work := func(bits []uint64, ev *core.Evaluator) {
		var st NodeState
		for {
			k := int(next.Add(settleChunk)) - settleChunk
			if k >= n {
				return
			}
			for _, v := range order[k:min(k+settleChunk, n)] {
				st.ID, st.View = int(v), &views[v]
				if s.cond(&st, ev) {
					bits[v>>6] |= 1 << (v & 63)
				}
			}
		}
	}
	helpers := a.workerEvals(r-1, n)
	var wg sync.WaitGroup
	wg.Add(len(helpers))
	for i, ev := range helpers {
		a.settleBits[i] = resetBits(a.settleBits[i], words)
		go func() {
			defer wg.Done()
			work(a.settleBits[i], ev)
		}()
	}
	work(s.bits, a.evaluator(n))
	wg.Wait()
	for _, bits := range a.settleBits[:len(helpers)] {
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

// settledFor returns the Arena's settled verdicts of its current view set
// under condition id: the ones computed earlier when it holds them, else the
// outcome of a new settle pass when need says one pays, else nil. The views
// must be the set's, pristine.
func (a *Arena) settledFor(id int, cond func(*NodeState, *core.Evaluator) bool, need bool, workers int) *Settled {
	s := &a.settled
	if s.id != id {
		if !need {
			return nil
		}
		s.id, s.cond = id, cond
		a.settle(s, a.views.Views(), a.views.Order(), workers)
	}
	return s
}

// offerSettled hands session s's protocol the run's settled verdicts before
// its Init, or nil where they do not hold: per-node views are built afresh
// every run, from graphs of their own, and are not the Arena's set. A static
// protocol always gets them, since its Init is the settle pass's work; any
// other asks for a pass on a set that has none only where a view build of n
// nodes would split in two (view.Ranges, whatever the core count), since at
// paper sizes the pass costs more than the evaluations it saves.
func (net *Network) offerSettled(s *session) {
	st, ok := s.proto.(Settler)
	if !ok {
		return
	}
	var settled *Settled
	if id, cond, static := st.SettleCondition(); id != 0 {
		if _, own := net.Cfg.Views.(PerNodeViews); !own {
			n := net.G.N()
			settled = net.arena.settledFor(id, cond, static || view.Ranges(n, n) > 1, net.Cfg.workerBudget())
		}
	}
	st.UseSettled(settled)
}
