package sim

import (
	"reflect"
	"testing"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
)

// ShardEveryBatch lowers the loop's sharding threshold and per-helper grain
// to zero until t ends: every same-instant batch of a run with w > 1 workers
// then goes through the parallel precompute with all w-1 helpers, so the
// differential, race and arena-reuse tests drive that path on networks far
// too small to reach minShard.
func ShardEveryBatch(t testing.TB) {
	oldShard, oldGrain := minShard, shardGrain
	minShard, shardGrain = 0, 0
	t.Cleanup(func() { minShard, shardGrain = oldShard, oldGrain })
}

// RunSharded is RunWith that also reports whether any batch of the run went
// through the parallel precompute.
func RunSharded(a *Arena, g *graph.Graph, source int, p Protocol, cfg Config) (Result, bool, error) {
	net, err := newRun(a, g, source, p, cfg)
	if err != nil {
		return Result{}, false, err
	}
	net.loop()
	return net.result(), net.sharded, nil
}

// SettleCounts returns what the last run on a did with settled verdicts: the
// verdicts a set bit decided, the verdicts evaluated past a clear bit, and
// the evaluations of settling view builds.
func SettleCounts(a *Arena) (settled, evaluated, passed int64) {
	return a.settled.hits.Load(), a.settled.evals.Load(), a.settled.passEvals.Load()
}

// PristineCovered returns node v's settled pristine verdict; ok is false when
// a holds no settled verdicts.
func PristineCovered(a *Arena, v int) (covered, ok bool) {
	s := &a.settled
	return s.id != 0 && s.bits[v>>6]>>(v&63)&1 != 0, s.id != 0
}

// HasView reports whether node v had a view in the last single run on a:
// false where the run's view set dropped it, or kept none.
func HasView(a *Arena, v int) bool { return a.nodes[v].View != nil }

// MergeEverywhere turns view retirement off until t ends: every delivered
// copy is merged into its receiver's view, decided or settled, so tests can
// compare runs with and without the skip.
func MergeEverywhere(t testing.TB) {
	mergeEverywhere = true
	t.Cleanup(func() { mergeEverywhere = false })
}

// RunCounted is RunWith that also reports how many delivered copies the run
// merged into views.
func RunCounted(a *Arena, g *graph.Graph, source int, p Protocol, cfg Config) (Result, int, error) {
	net, err := newRun(a, g, source, p, cfg)
	if err != nil {
		return Result{}, 0, err
	}
	net.loop()
	return net.result(), net.merges, nil
}

// DebugChecks reports whether the package was built with the simdebug tag,
// whose runs keep merging copies at settled nodes.
const DebugChecks = debugChecks

// Transmissions returns the transmit events only, fully cloned like Events.
func (r *Recorder) Transmissions() []obsv.TraceEvent {
	var out []obsv.TraceEvent
	for _, e := range r.events {
		if e.Kind == obsv.TraceTransmit {
			out = append(out, cloneEvent(e))
		}
	}
	return out
}

// PacketSlots returns the packet slab slots the last run on a handed out, and
// how many slots past them still hold a packet.
func PacketSlots(a *Arena) (used, stale int) {
	for i := a.npkts; i < len(a.pkts)*packetChunk; i++ {
		if !reflect.ValueOf(a.pkts[i/packetChunk][i%packetChunk]).IsZero() {
			stale++
		}
	}
	return a.npkts, stale
}

// QueuePushes returns how many events the last run on a pushed onto its
// calendar queue.
func QueuePushes(a *Arena) int { return a.cal.pushes }
