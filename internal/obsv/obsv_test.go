package obsv

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, x := range []float64{0, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(x)
	}
	// Bucket i counts Bounds[i-1] < x <= Bounds[i]; the last is overflow.
	want := []uint64{2, 2, 2, 2} // (-inf,1]: 0,1; (1,2]: 1.5,2; (2,4]: 3,4; >4: 5,100
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Count != 8 || h.Min != 0 || h.Max != 100 {
		t.Fatalf("count/min/max = %d/%v/%v, want 8/0/100", h.Count, h.Min, h.Max)
	}
	if got, want := h.Mean(), (0+1+1.5+2+3+4+5+100)/8; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	h.Reset()
	if h.Count != 0 || h.Sum != 0 || h.Mean() != 0 {
		t.Fatalf("reset histogram not empty: %+v", h)
	}
	for _, c := range h.Counts {
		if c != 0 {
			t.Fatalf("reset histogram keeps counts: %v", h.Counts)
		}
	}
	if len(h.Bounds) != 3 || len(h.Counts) != 4 {
		t.Fatalf("reset histogram lost its layout: %+v", h)
	}
}

func TestHistogramMinTracksFirstObservation(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(5)
	if h.Min != 5 || h.Max != 5 {
		t.Fatalf("min/max = %v/%v, want 5/5", h.Min, h.Max)
	}
	h.Observe(7)
	if h.Min != 5 || h.Max != 7 {
		t.Fatalf("min/max = %v/%v, want 5/7", h.Min, h.Max)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRunRecordResetInitializesZeroValue(t *testing.T) {
	var r RunRecord
	r.Reset()
	if len(r.Latency.Counts) == 0 || len(r.ForwardSet.Counts) == 0 {
		t.Fatalf("reset zero-value record has no histogram layout: %+v", r)
	}
	r.Latency.Observe(3)
	r.Copies = 7
	r.Reset()
	if r.Copies != 0 || r.Latency.Count != 0 {
		t.Fatalf("reset kept data: %+v", r)
	}
}

func TestRunRecordConserved(t *testing.T) {
	r := RunRecord{Copies: 10, Receipts: 4, Lost: 2, Collided: 1, DroppedNodeDown: 2, DroppedLinkDown: 1}
	if !r.Conserved() {
		t.Fatalf("balanced record reported unconserved: %+v", r)
	}
	if r.FaultDrops() != 3 {
		t.Fatalf("fault drops = %d, want 3", r.FaultDrops())
	}
	r.Lost++
	if r.Conserved() {
		t.Fatalf("unbalanced record reported conserved: %+v", r)
	}
}

// TestCrashRecoveryCounters pins the obsv/v1-additive crash-recovery
// counters: they sit outside the Conserved identity (a restarted node
// re-enters the run, it does not transmit unaccounted copies), they are
// omitted from JSON when zero (old records parse and re-encode unchanged),
// they survive a round-trip when set, and Reset clears them.
func TestCrashRecoveryCounters(t *testing.T) {
	r := RunRecord{Copies: 10, Receipts: 4, Lost: 2, Collided: 1, DroppedNodeDown: 2, DroppedLinkDown: 1,
		Restarts: 5, JournalReplays: 4, StaleViewHolds: 3}
	if !r.Conserved() {
		t.Fatalf("crash-recovery counters broke the conservation identity: %+v", r)
	}
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	var back RunRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Restarts != 5 || back.JournalReplays != 4 || back.StaleViewHolds != 3 {
		t.Fatalf("round-trip lost counters: %+v", back)
	}
	var zero RunRecord
	data, err = json.Marshal(&zero)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"restarts", "journal_replays", "stale_view_holds"} {
		if strings.Contains(string(data), key) {
			t.Errorf("zero record encodes %q; the counters must be omitempty additions", key)
		}
	}
	r.Reset()
	if r.Restarts != 0 || r.JournalReplays != 0 || r.StaleViewHolds != 0 {
		t.Fatalf("Reset kept crash-recovery counters: %+v", r)
	}
}

func TestLiveCounters(t *testing.T) {
	var c LiveCounters
	c.AddReplicate()
	c.AddReplicate()
	c.PointConverged()
	c.PointExhausted()
	s := c.String()
	for _, want := range []string{`"replicates": 2`, `"points_converged": 1`, `"points_exhausted": 1`} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %s, missing %s", s, want)
		}
	}
}

// TestObserveAllocFree pins the metric hot path: the simulator calls Observe
// from inside its event loop, so it must not allocate.
func TestObserveAllocFree(t *testing.T) {
	r := NewRunRecord()
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Latency.Observe(3.5)
		r.ForwardSet.Observe(4)
	}); allocs != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, r.Reset); allocs != 0 {
		t.Fatalf("Reset allocates %v times per call, want 0", allocs)
	}
}
