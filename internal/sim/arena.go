package sim

import (
	"fmt"

	"adhocbcast/internal/core"
	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

// Arena owns the simulator's reusable hot state: the flat per-node state
// array, the packet slab, the calendar event queue, batch and collision
// scratch, coverage evaluators, and the run's built local views — one
// view.Set (views, member and status slabs, base priorities). One Arena
// serves one run at a time; passing the same Arena to consecutive RunWith
// calls reuses every allocation, which is what makes large replication sweeps
// allocation-free in steady state.
//
// The packet slab holds a run's packets, one slot per transmission (and per
// session source): events, MAC queues, receipts and node states point into it
// until the run ends, across every backoff, retransmission and session.
// Chunks are never reallocated; the next run starts over at slot 0.
//
// The view set is keyed by (topology pointer, hops, metric): a run over the
// same key reuses the built views after clearing their learned status marks,
// and their settled verdicts (Settled); any other run rebuilds them in place.
// Callers must therefore not edit a graph in place between runs that share an
// Arena (simdebug builds check).
//
// An Arena kept between runs — a sweep driver's pool — pins the last topology
// it built views from and state sized to the largest run it served: bounded,
// since a driver holds one Arena per concurrent replicate.
type Arena struct {
	nodes   []NodeState
	pkts    [][]Packet // packet slab, in chunks of packetChunk
	npkts   int        // slots handed out this run
	pktSums []uint64   // simdebug: fingerprint of each slot when it was built
	cal     calQueue
	builder *view.Builder

	// Built views and their key (shared-topology modes; PerNodeViews runs
	// build single views instead).
	viewG      *graph.Graph
	viewHops   int
	viewMetric view.Metric
	views      view.Set

	// The view set's settled verdicts (settle.go) and the settle pass's
	// per-helper bitmaps.
	settled    Settled
	settleBits [][]uint64

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
	evtKind    []uint8 // per-node batch event classification bits
	evtTouched []int   // nodes with non-zero evtKind entries
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

// packetChunk is the packet slab's growth step (16 KiB of packets).
const packetChunk = 256

// addPacket stores p in the slab's next free slot, never written again, and
// in simdebug builds fingerprints it for checkPackets.
func (a *Arena) addPacket(p Packet) *Packet {
	i := a.npkts
	if i/packetChunk == len(a.pkts) {
		a.pkts = append(a.pkts, make([]Packet, packetChunk))
	}
	a.npkts++
	if debugChecks {
		a.pktSums = append(a.pktSums, p.fingerprint())
	}
	dst := &a.pkts[i/packetChunk][i%packetChunk]
	*dst = p
	return dst
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

// viewsFor returns the local views of every node over vg: the set built by the
// previous run with its learned marks cleared when the key repeats, else a
// rebuild into the same memory on up to workers goroutines. On a hit, simdebug
// builds check that the key — the topology's pointer, not its content — still
// stands for the views.
func (a *Arena) viewsFor(vg *graph.Graph, hops int, metric view.Metric, workers int) []view.Local {
	if a.viewG != vg || a.viewHops != hops || a.viewMetric != metric {
		a.viewG, a.viewHops, a.viewMetric = vg, hops, metric
		a.settled.id, a.settled.cond = 0, nil // verdicts of the views being replaced
		a.builder.BuildAll(&a.views, vg, hops, metric, workers)
		return a.views.Views()
	}
	if debugChecks {
		if v := a.builder.Stale(&a.views); v >= 0 {
			panic(fmt.Sprintf("sim: the %d-hop view of node %d no longer matches its topology: a graph was changed in place between runs that share an Arena", hops, v))
		}
	}
	a.views.ResetStatus()
	return a.views.Views()
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

// precomputeScratch sizes the parallel phase's event-classification array
// for an n-node single run; a run calls it at its first sharded batch. Like
// the count array, it is reset entry by entry by its users.
func (a *Arena) precomputeScratch(n int) {
	if cap(a.evtKind) < n {
		a.evtKind = make([]uint8, n)
	}
	a.evtKind = a.evtKind[:n]
}
