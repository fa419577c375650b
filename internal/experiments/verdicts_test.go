package experiments

import (
	"sync/atomic"
	"testing"

	"adhocbcast/internal/core"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/stats"
	"adhocbcast/internal/view"
)

// settlingEngine is what the simulator asks of a protocol engine whose
// coverage verdicts settle.
type settlingEngine interface {
	sim.Protocol
	sim.Settler
	sim.NonDesignating
	sim.TimerPrecomputer
}

// passCounter is an engine whose coverage condition counts its calls on a
// node the broadcast has not reached: the calls a settling pass makes, one
// per node, and (simdebug only) the checks of a static run's Init. Runs
// evaluate the condition at timers, which only reached nodes set.
type passCounter struct {
	settlingEngine
	pristine *atomic.Int64
}

func (p passCounter) SettleCondition() (int, func(*sim.NodeState, *core.Evaluator) bool, bool) {
	id, cond, static := p.settlingEngine.SettleCondition()
	return id, func(st *sim.NodeState, ev *core.Evaluator) bool {
		if !st.Received {
			p.pristine.Add(1)
		}
		return cond(st, ev)
	}, static
}

// TestSweepSettlesEachWorkloadOnce pins that a sweep decides each
// workload's pristine verdicts once per (hops, metric, condition), not once
// per variant: Figure 10's four timings plus a second Static curve, at 2 and
// 3 hops, over n = 20 and 40 at five replicates a point, evaluate the
// condition on Σ n·5·2 = 600 pristine views — one settling pass per
// workload and key, the first Static run's. Every later run adopts what that
// pass left on the workload, which then holds one verdict set per hop count.
// Points run one at a time: two concurrent points over one workload may both
// settle it before either leaves its verdicts.
func TestSweepSettlesEachWorkloadOnce(t *testing.T) {
	var pristine atomic.Int64
	counted := func(timing protocol.Timing) func() sim.Protocol {
		return func() sim.Protocol {
			return passCounter{protocol.Generic(timing).(settlingEngine), &pristine}
		}
	}
	cfg := sim.Config{Metric: view.MetricID}
	variants := []variant{
		{label: "Static", cfg: cfg, make: counted(protocol.TimingStatic)},
		{label: "FR", cfg: cfg, make: counted(protocol.TimingFirstReceipt)},
		{label: "FRB", cfg: cfg, make: counted(protocol.TimingBackoffRandom)},
		{label: "FRBD", cfg: cfg, make: counted(protocol.TimingBackoffDegree)},
		{label: "Static again", cfg: cfg, make: counted(protocol.TimingStatic)},
	}
	const reps = 5
	rc := RunConfig{
		Sizes:       []int{20, 40},
		Degrees:     []int{6},
		Replicate:   stats.ReplicateOptions{MinRuns: reps, MaxRuns: reps, RelTol: 1e-9},
		Seed:        4801,
		Parallelism: 1,
	}.withDefaults()
	if _, err := buildFigure(rc, "settle", "settling passes", []int{2, 3}, variants); err != nil {
		t.Fatal(err)
	}
	want := int64((20 + 40) * reps * 2)
	if simdebug {
		want *= 3 // both Static curves' Init checks every verdict
	}
	if got := pristine.Load(); got != want {
		t.Errorf("the sweep evaluated %d pristine views, want %d", got, want)
	}
	for _, n := range rc.Sizes {
		for i := 0; i < reps; i++ {
			w, _, err := rc.workload(n, 6, i)
			if err != nil {
				t.Fatal(err)
			}
			w.verdicts.mu.Lock()
			sets := len(w.verdicts.sets)
			w.verdicts.mu.Unlock()
			if sets != 2 {
				t.Errorf("n=%d rep %d: the workload holds %d verdict sets, want 2 (2 and 3 hops)", n, i, sets)
			}
		}
	}
}
