package sim

import (
	"fmt"
	"slices"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// Arena owns the simulator's reusable hot state: the flat per-node state
// array, the packet slab, the calendar event queue, batch and collision
// scratch, coverage evaluators, and the run's built local views — one
// view.Set (views, member and status slabs, base priorities) with its
// settled verdicts. One Arena serves one run at a time; passing the same
// Arena to consecutive RunWith calls reuses every allocation, which is what
// makes large replication sweeps allocation-free in steady state.
//
// The packet slab holds a run's packets, one slot per transmission (and per
// session source): events and MAC queue items name a packet by its int32
// slot, so they hold no pointer; receipts and node states point into it.
// Both stay valid until the run ends, across every backoff, retransmission
// and session. Chunks are never reallocated; the next run clears the slots
// the last one used and starts over at slot 0.
//
// The view set holds a view only where a run reads one (viewsFor): under a
// protocol whose settled verdicts decide a node without its view, the views
// of settled nodes are never built, and a protocol that reads no view gets
// none. The set is keyed by (topology pointer, hops, metric), the condition
// whose settled verdicts it holds (Settled) and whether it dropped views: a
// run over the same key reuses the built views after clearing their learned
// status marks; any other run rebuilds them in place. Settled verdicts also
// travel between Arenas: KeepVerdicts hands out a copy of the set's, and a
// run on another Arena that Adopt offered them to takes them in place of a
// settling pass, as long as its own key — topology pointer, hops, metric and
// condition id — is theirs. A pointer is a sound key because a graph never
// changes once built: it names one topology for its whole life.
//
// An Arena kept between runs — a sweep driver's pool — pins the last topology
// it built views from and state sized to the largest run it served: bounded,
// since a driver holds one Arena per concurrent replicate. It keeps no
// offered verdicts past the run they were offered to.
type Arena struct {
	nodes   []NodeState
	pkts    [][]Packet // packet slab, in chunks of packetChunk
	npkts   int        // slots handed out this run
	pktSums []uint64   // simdebug: fingerprint of each slot when it was built
	cal     calQueue
	builder *view.Builder

	// Built views and their key, with settled.id (shared-topology modes;
	// PerNodeViews runs build single views instead). viewCompact is set
	// when the build dropped the views of settled nodes.
	viewKey     viewKey
	viewCompact bool
	views       view.Set

	// Verdicts Adopt offered to the next run, which takes them when it
	// starts (takeOffered).
	offered []*Settled

	// The view set's settled verdicts (settle.go), and the settling build's
	// per-helper bitmaps and per-worker node states.
	settled      Settled
	settleBits   [][]uint64
	settleStates []NodeState

	// Coverage evaluators: one shared instance, which the dispatching
	// goroutine also uses for its precompute shard, plus one private
	// instance per helper goroutine, made the first time a batch needs that
	// many helpers (one per shardGrain timers). Evaluators grow on demand,
	// so one set serves runs of any size.
	eval    *core.Evaluator
	wrkEval []*core.Evaluator

	// Event-loop scratch.
	batch      []event // same-instant batch
	arrCnt     []int32 // per-node same-instant arrival counts
	arrTouched []int   // nodes with non-zero arrCnt entries
	evtSeen    []bool  // per node: an event of it was met in the batch
	timerIdx   []int   // batch indices of precomputable timer events

	// The run's first-delivery latencies, relative to each session's
	// injection (traffic runs report their quantiles).
	latencies []float64

	// Contention-MAC scratch (CarrierSense runs; see Network.resetMAC).
	busyUntil   []float64
	airEnd      []float64
	garbleUntil []float64
	txPending   []bool
	txq         []txRing
}

// NewArena returns an empty Arena ready for RunWith.
func NewArena() *Arena {
	return &Arena{builder: view.NewBuilder()}
}

// viewKey is what a view set is built from: the topology, by pointer, the
// hop count and the priority metric. A *graph.Graph is immutable, so equal
// pointers mean equal topologies, on any goroutine.
type viewKey struct {
	g      *graph.Graph
	hops   int
	metric view.Metric
}

// Adopt offers the Arena's next run settled verdicts that KeepVerdicts
// handed out, typically on other Arenas that ran the same topology. If one
// of them has the key of the view set the run readies (its topology pointer,
// hops, metric and condition id), the run takes it in place of a settling
// pass: it evaluates no pristine verdict, builds no view its verdicts make
// unread, and gives its protocol the verdicts even where it would not settle
// on its own (see viewsFor). The run ignores every other offered verdict.
// It drops the offer when it starts, whether it took one or not; offered
// must not be changed until then.
func (a *Arena) Adopt(offered []*Settled) { a.offered = offered }

// KeepVerdicts hands out the Arena's settled verdicts for later runs on
// other Arenas (Adopt): when its view set holds verdicts over g's views and
// kept holds none of their key, it returns kept with a copy of them
// appended; otherwise it returns kept. It never writes kept's elements or
// its backing array, so readers of an earlier kept are undisturbed.
func (a *Arena) KeepVerdicts(g *graph.Graph, kept []*Settled) []*Settled {
	s := &a.settled
	if s.id == 0 || a.viewKey.g != g {
		return kept
	}
	for _, o := range kept {
		if o.key == a.viewKey && o.id == s.id {
			return kept
		}
	}
	return append(kept[:len(kept):len(kept)], &Settled{key: a.viewKey, id: s.id, bits: slices.Clone(s.bits)})
}

// takeOffered returns the verdicts Adopt offered the run about to start and
// drops them from a, which may be nil.
func (a *Arena) takeOffered() []*Settled {
	if a == nil {
		return nil
	}
	offered := a.offered
	a.offered = nil
	return offered
}

// packetChunk is the packet slab's growth step (16 KiB of packets).
const packetChunk = 256

// addPacket stores p in the slab's next free slot, never written again, and
// returns the slot; in simdebug builds it fingerprints p for checkPackets.
func (a *Arena) addPacket(p Packet) int32 {
	i := a.npkts
	if i/packetChunk == len(a.pkts) {
		a.pkts = append(a.pkts, make([]Packet, packetChunk))
	}
	a.npkts++
	if debugChecks {
		a.pktSums = append(a.pktSums, p.fingerprint())
	}
	a.pkts[i/packetChunk][i%packetChunk] = p
	return int32(i)
}

// packet returns the packet in slot i, which addPacket handed out this run.
func (a *Arena) packet(i int32) *Packet {
	return &a.pkts[uint32(i)/packetChunk][uint32(i)%packetChunk]
}

// resetPackets zeroes the slots the last run handed out, so the trails,
// designated sets and extras they point to do not outlive it, and starts the
// slab over at slot 0.
func (a *Arena) resetPackets() {
	for i := 0; i < a.npkts; i += packetChunk {
		clear(a.pkts[i/packetChunk][:min(packetChunk, a.npkts-i)])
	}
	a.npkts, a.pktSums = 0, a.pktSums[:0]
}

// checkPackets is the simdebug guard on packet sharing, run when a run ends:
// all receivers of a transmission were handed the same Packet, so a protocol
// or merge path that wrote to one (or to its trail, designated or extra
// slices) corrupted the others. It panics on the first packet that no longer
// matches the fingerprint taken when it was built.
func (a *Arena) checkPackets() {
	for i, sum := range a.pktSums {
		if p := &a.pkts[i/packetChunk][i%packetChunk]; p.fingerprint() != sum {
			panic(fmt.Sprintf("sim: the packet node %d transmitted in session %d was written to after it was built; delivered packets are shared and read-only",
				p.Sender(), p.Session))
		}
	}
}

// stateNodes returns the flat node-state array resized and reset for an
// n-node run. Designation slices keep their capacity across runs.
func (a *Arena) stateNodes(n int) []NodeState {
	if cap(a.nodes) < n {
		a.nodes = make([]NodeState, n)
	}
	nodes := a.nodes[:n]
	for v := range nodes {
		st := &nodes[v]
		*st = NodeState{
			ID:           v,
			FirstFrom:    -1,
			DesignatedBy: st.DesignatedBy[:0],
		}
	}
	a.nodes = nodes
	return nodes
}

// evaluator returns the run's shared sequential coverage evaluator.
func (a *Arena) evaluator(n int) *core.Evaluator {
	if a.eval == nil {
		a.eval = core.NewEvaluator(n)
	}
	return a.eval
}

// workerEvals returns the private evaluators of w helper goroutines of the
// parallel precompute phase.
func (a *Arena) workerEvals(w, n int) []*core.Evaluator {
	for len(a.wrkEval) < w {
		a.wrkEval = append(a.wrkEval, core.NewEvaluator(n))
	}
	return a.wrkEval[:w]
}

// ensureMACScratch sizes the contention-MAC scratch for an n-node run. The
// five arrays are always (re)allocated together, so one capacity check
// suffices; Network.resetMAC clears the entries it will use.
func (a *Arena) ensureMACScratch(n int) {
	if cap(a.busyUntil) < n {
		a.busyUntil = make([]float64, n)
		a.airEnd = make([]float64, n)
		a.garbleUntil = make([]float64, n)
		a.txPending = make([]bool, n)
		a.txq = make([]txRing, n)
	}
	a.busyUntil = a.busyUntil[:n]
	a.airEnd = a.airEnd[:n]
	a.garbleUntil = a.garbleUntil[:n]
	a.txPending = a.txPending[:n]
	a.txq = a.txq[:n]
}

// ensureLoopScratch sizes the batch-processing scratch for an n-node run.
// The count array relies on its users to zero touched entries after every
// batch, so reuse needs no clearing pass here.
func (a *Arena) ensureLoopScratch(n int) {
	if cap(a.arrCnt) < n {
		a.arrCnt = make([]int32, n)
	}
	a.arrCnt = a.arrCnt[:n]
}

// precomputeScratch sizes the parallel phase's per-node marks for an n-node
// single run; a run calls it at its first sharded batch. Like the count
// array, they are reset entry by entry by their user.
func (a *Arena) precomputeScratch(n int) {
	if cap(a.evtSeen) < n {
		a.evtSeen = make([]bool, n)
	}
	a.evtSeen = a.evtSeen[:n]
}
