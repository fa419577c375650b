package sim_test

import (
	"strings"
	"testing"

	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

func TestRecorderOnPath(t *testing.T) {
	g := pathGraph(t, 4)
	rec := &sim.Recorder{}
	res, err := sim.Run(g, 0, protocol.Generic(protocol.TimingFirstReceipt),
		sim.Config{Hops: 2, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}

	tx := rec.Transmissions()
	if len(tx) != res.ForwardCount() {
		t.Fatalf("recorded %d transmissions, result says %d", len(tx), res.ForwardCount())
	}
	for i, e := range tx {
		if e.Node != res.Forward[i] {
			t.Fatalf("transmission order mismatch: trace %v vs result %v", tx, res.Forward)
		}
	}

	// On a path 0-1-2-3, first deliveries happen at t = hop count.
	times := rec.DeliveryTimes()
	for v := 1; v <= 3; v++ {
		if times[v] != float64(v) {
			t.Fatalf("node %d first delivery at %v, want %d", v, times[v], v)
		}
	}
	// The source holds the packet from the start: t=0, not the t=2 echo of
	// node 1's retransmission.
	if times[0] != 0 {
		t.Fatalf("source first delivery at %v, want 0", times[0])
	}
	want := (0.0 + 1.0 + 2.0 + 3.0) / 4.0
	if got := rec.MeanDeliveryLatency(); got != want {
		t.Fatalf("mean latency = %v, want %v", got, want)
	}

	// The leaf (node 3) prunes itself: exactly one non-forward decision.
	nonForward := 0
	for _, e := range rec.Events() {
		if e.Kind == obsv.TraceNonForward {
			nonForward++
			if e.Node != 3 {
				t.Fatalf("unexpected non-forward decision at node %d", e.Node)
			}
		}
	}
	if nonForward != 1 {
		t.Fatalf("non-forward decisions = %d, want 1", nonForward)
	}
}

func TestRecorderFormat(t *testing.T) {
	g := pathGraph(t, 3)
	rec := &sim.Recorder{}
	if _, err := sim.Run(g, 0, protocol.DP(), sim.Config{Hops: 2, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	out := rec.Format()
	for _, want := range []string{"transmits", "receives from", "designating"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestRecorderEmpty(t *testing.T) {
	var rec sim.Recorder
	if rec.MeanDeliveryLatency() != 0 {
		t.Fatal("empty recorder latency not 0")
	}
	if len(rec.Events()) != 0 || len(rec.Transmissions()) != 0 {
		t.Fatal("empty recorder has events")
	}
}

func TestObserverSeesLossFiltering(t *testing.T) {
	// With total loss, the observer sees the source transmission and no
	// deliveries.
	g := pathGraph(t, 3)
	rec := &sim.Recorder{}
	if _, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{
		LossRate: 0.999999,
		Seed:     1,
		Observer: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Transmissions()) != 1 {
		t.Fatalf("transmissions = %d, want 1", len(rec.Transmissions()))
	}
	// Only the source's own t=0 possession is recorded: no transmitted copy
	// survives the channel.
	times := rec.DeliveryTimes()
	if len(times) != 1 || times[0] != 0 {
		t.Fatalf("deliveries recorded despite total loss: %v", times)
	}
}

// TestSourceDeliveryAtZero pins the trace-latency bugfix on a 3-node path:
// the source's first delivery is reported at t=0 with sender -1, not at t=2
// when node 1's retransmission echoes back, and the echo does not displace
// it. Before the fix the source entry was the echo time, skewing
// MeanDeliveryLatency upward.
func TestSourceDeliveryAtZero(t *testing.T) {
	g := pathGraph(t, 3)
	rec := &sim.Recorder{}
	res, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{Hops: 2, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullDelivery() {
		t.Fatalf("delivered %d/%d", res.Delivered, res.N)
	}
	times := rec.DeliveryTimes()
	if times[0] != 0 {
		t.Fatalf("source first delivery at %v, want 0", times[0])
	}
	events := rec.Events()
	if e := events[0]; e.Kind != obsv.TraceDeliver || e.Node != 0 || e.At != 0 || e.From != -1 {
		t.Fatalf("first event is %+v, want source delivery at t=0 from -1", e)
	}
	// Flooding on a path: node 1 retransmits, its copy echoes to the source
	// at t=2; the first-delivery map must keep t=0.
	echo := false
	for _, e := range events[1:] {
		if e.Kind == obsv.TraceDeliver && e.Node == 0 && e.At == 2 {
			echo = true
		}
	}
	if !echo {
		t.Fatal("expected the t=2 echo delivery at the source to still be traced")
	}
	if want := (0.0 + 1.0 + 2.0) / 3.0; rec.MeanDeliveryLatency() != want {
		t.Fatalf("mean latency = %v, want %v", rec.MeanDeliveryLatency(), want)
	}
}

// TestEventsDeepCopy pins the Recorder aliasing bugfix: mutating the
// Designated slice of a returned event must not corrupt the recorder's
// internal state or other returned copies.
func TestEventsDeepCopy(t *testing.T) {
	g := pathGraph(t, 4)
	rec := &sim.Recorder{}
	if _, err := sim.Run(g, 0, protocol.DP(), sim.Config{Hops: 2, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	find := func(events []obsv.TraceEvent) *obsv.TraceEvent {
		for i := range events {
			if events[i].Kind == obsv.TraceTransmit && len(events[i].Designated) > 0 {
				return &events[i]
			}
		}
		return nil
	}
	first := find(rec.Events())
	if first == nil {
		t.Fatal("no transmit event with a designated set")
	}
	want := append([]int(nil), first.Designated...)
	first.Designated[0] = -99
	if got := find(rec.Events()); got.Designated[0] != want[0] {
		t.Fatalf("mutating Events() result leaked into the recorder: got %v, want %v",
			got.Designated, want)
	}
	tx := find(rec.Transmissions())
	tx.Designated[0] = -77
	if got := find(rec.Transmissions()); got.Designated[0] != want[0] {
		t.Fatalf("mutating Transmissions() result leaked into the recorder: got %v, want %v",
			got.Designated, want)
	}
}
