package sim

import (
	"testing"

	"adhocbcast/internal/graph"
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
// the evaluations of settle passes.
func SettleCounts(a *Arena) (settled, evaluated, passed int64) {
	return a.settled.hits.Load(), a.settled.evals.Load(), a.settled.passEvals.Load()
}

// PristineCovered returns node v's settled pristine verdict; ok is false when
// a holds no settled verdicts.
func PristineCovered(a *Arena, v int) (covered, ok bool) {
	s := &a.settled
	return s.id != 0 && s.bits[v>>6]>>(v&63)&1 != 0, s.id != 0
}
