package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// metricsWorkload is a mid-sized random network shared by the metrics tests.
func metricsWorkload(t *testing.T) *geo.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	net, err := geo.Generate(geo.Config{N: 60, AvgDegree: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRunRecordMatchesResult checks that an attached RunRecord mirrors the
// run's Result counters exactly and that its histograms observe one first
// delivery per delivered node (the source at t=0) and one forward-set size
// per transmission.
func TestRunRecordMatchesResult(t *testing.T) {
	net := metricsWorkload(t)
	rr := obsv.NewRunRecord()
	res, err := sim.Run(net.G, 0, protocol.Generic(protocol.TimingFirstReceipt), sim.Config{
		Hops:     2,
		Seed:     3,
		LossRate: 0.1,
		Metrics:  rr,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &obsv.RunRecord{
		N:                  res.N,
		Delivered:          res.Delivered,
		Forward:            len(res.Forward),
		Copies:             res.Copies,
		Receipts:           res.Receipts,
		Lost:               res.Lost,
		Collided:           res.Collided,
		DroppedNodeDown:    res.DroppedNodeDown,
		DroppedLinkDown:    res.DroppedLinkDown,
		TimersCancelled:    res.TimersCancelled,
		NACKs:              res.NACKs,
		Retransmits:        res.Retransmits,
		Reachable:          res.Reachable,
		DeliveredReachable: res.DeliveredReachable,
		Finish:             res.Finish,
		Latency:            rr.Latency,
		ForwardSet:         rr.ForwardSet,
	}
	if !reflect.DeepEqual(rr, want) {
		t.Fatalf("RunRecord counters diverge from Result:\n got %+v\nwant %+v", rr, want)
	}
	if rr.Latency.Count != uint64(res.Delivered) {
		t.Fatalf("latency observations = %d, want one per delivered node (%d)",
			rr.Latency.Count, res.Delivered)
	}
	if rr.Latency.Min != 0 {
		t.Fatalf("latency min = %v, want 0 (the source holds the packet at t=0)", rr.Latency.Min)
	}
	if rr.ForwardSet.Count != uint64(len(res.Forward)) {
		t.Fatalf("forward-set observations = %d, want one per transmission (%d)",
			rr.ForwardSet.Count, len(res.Forward))
	}
	if !rr.Conserved() {
		t.Fatalf("conservation identity broken: %+v", rr)
	}
}

// TestMetricsNilIdentical checks the nil-by-default contract: attaching a
// RunRecord never perturbs the simulation, so instrumented and plain runs of
// the same seeds produce identical Results.
func TestMetricsNilIdentical(t *testing.T) {
	net := metricsWorkload(t)
	cfg := sim.Config{Hops: 2, Seed: 5, LossRate: 0.15, Collisions: true, TxJitter: 0.5}
	plain, err := sim.Run(net.G, 0, protocol.Generic(protocol.TimingBackoffRandom), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = obsv.NewRunRecord()
	instrumented, err := sim.Run(net.G, 0, protocol.Generic(protocol.TimingBackoffRandom), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("metrics instrumentation changed the run:\nplain        %+v\ninstrumented %+v",
			plain, instrumented)
	}
}

// TestRunRecordReusedAcrossRuns checks that sim.Run resets a reused record,
// so one allocation serves a whole sweep without counters accumulating.
func TestRunRecordReusedAcrossRuns(t *testing.T) {
	net := metricsWorkload(t)
	rr := obsv.NewRunRecord()
	cfg := sim.Config{Hops: 2, Seed: 3, Metrics: rr}
	if _, err := sim.Run(net.G, 0, protocol.Flooding(), cfg); err != nil {
		t.Fatal(err)
	}
	first := *rr
	res, err := sim.Run(net.G, 0, protocol.Flooding(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Copies != res.Copies || rr.Latency.Count != first.Latency.Count {
		t.Fatalf("reused record accumulated across runs: first copies %d, second %d (result %d)",
			first.Copies, rr.Copies, res.Copies)
	}
	// A zero-value record works too once Run has reset it.
	var zero obsv.RunRecord
	cfg.Metrics = &zero
	if _, err := sim.Run(net.G, 0, protocol.Flooding(), cfg); err != nil {
		t.Fatal(err)
	}
	if zero.Latency.Count == 0 || !zero.Conserved() {
		t.Fatalf("zero-value record not populated: %+v", zero)
	}
}

// TestObserverSilentAfterCrash checks the observer/metrics contract under a
// fault plan: a crashed node emits no deliver or transmit event at or after
// its crash time, and the RunRecord's per-cause drop counters close the
// conservation identity (receipts + lost + collided + fault drops == copies).
func TestObserverSilentAfterCrash(t *testing.T) {
	net := metricsWorkload(t)
	plan, err := fault.NewPlan(net.G, fault.Params{CrashFraction: 0.3, Protect: []int{0}}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrashedCount() == 0 {
		t.Fatal("fault plan crashed no nodes; the test needs crashes")
	}
	rec := &sim.Recorder{}
	rr := obsv.NewRunRecord()
	res, err := sim.Run(net.G, 0, protocol.Flooding(), sim.Config{
		Hops:     2,
		Seed:     3,
		LossRate: 0.1,
		Faults:   plan,
		Observer: rec,
		Metrics:  rr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Events() {
		if e.Kind != obsv.TraceDeliver && e.Kind != obsv.TraceTransmit {
			continue
		}
		if tc, crashed := plan.CrashTime(e.Node); crashed && e.At >= tc {
			t.Errorf("node %d crashed at %v but emitted %s at %v", e.Node, tc, e.Kind, e.At)
		}
	}
	if rr.DroppedNodeDown == 0 {
		t.Fatal("no node-down drops recorded despite crashes mid-broadcast")
	}
	if !rr.Conserved() {
		t.Fatalf("conservation identity broken on faulty run: receipts %d + lost %d + collided %d + faultDrops %d != copies %d",
			rr.Receipts, rr.Lost, rr.Collided, rr.FaultDrops(), rr.Copies)
	}
	assertConserved(t, res)
}
