package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/view"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Metric != view.MetricID {
		t.Fatalf("default metric = %v", c.Metric)
	}
	if c.PiggybackDepth != 2 {
		t.Fatalf("default piggyback depth = %d", c.PiggybackDepth)
	}
	if c.BackoffWindow != 8 {
		t.Fatalf("default backoff window = %v", c.BackoffWindow)
	}
	if c.TransmitDelay != 1 {
		t.Fatalf("default transmit delay = %v", c.TransmitDelay)
	}
}

func TestConfigNegativePiggybackDisables(t *testing.T) {
	c := Config{PiggybackDepth: -1}.withDefaults()
	if c.PiggybackDepth != 0 {
		t.Fatalf("piggyback depth = %d, want 0", c.PiggybackDepth)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	heap.Push(&q, &event{at: 2.0, seq: 1, node: 0})
	heap.Push(&q, &event{at: 1.0, seq: 2, node: 1})
	heap.Push(&q, &event{at: 1.0, seq: 3, node: 2})
	heap.Push(&q, &event{at: 0.5, seq: 4, node: 3})

	var order []int
	for q.Len() > 0 {
		order = append(order, int(heap.Pop(&q).(*event).node))
	}
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", order, want)
		}
	}
}

// TestEventQueueQuick checks the heap never pops out of (time, seq) order.
func TestEventQueueQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		for i := 0; i < 200; i++ {
			heap.Push(&q, &event{at: float64(rng.Intn(20)), seq: i, node: int32(i)})
		}
		var prev *event
		for q.Len() > 0 {
			e := heap.Pop(&q).(*event)
			if prev != nil {
				if e.at < prev.at || (e.at == prev.at && e.seq < prev.seq) {
					return false
				}
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketSender(t *testing.T) {
	p := Packet{Source: 7}
	if p.Sender() != 7 {
		t.Fatalf("empty-trail sender = %d, want source 7", p.Sender())
	}
	if p.SenderDesignated() != nil {
		t.Fatal("empty-trail designated set not nil")
	}
	p.Trail = []TrailEntry{
		{Node: 3, Designated: []int{9}},
		{Node: 5, Designated: []int{1, 2}},
	}
	if p.Sender() != 5 {
		t.Fatalf("sender = %d, want 5", p.Sender())
	}
	d := p.SenderDesignated()
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Fatalf("designated = %v", d)
	}
}

// TestStateFootprint pins the simulator's two per-item footprints so they
// cannot creep back: an event is what every copy in flight costs in the
// calendar queue (and what its sifts and batch copies move), a NodeState is
// what every node — and every node of every traffic session — costs.
func TestStateFootprint(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 48 {
		t.Errorf("event is %d bytes, budget 48: at 8 + seq 8 + *Packet 8 + node/peer/attempt/session 4 each + kind 1, padded; "+
			"packets and receipts are referred to, never embedded", got)
	}
	if got := unsafe.Sizeof(NodeState{}); got > 80 {
		t.Errorf("NodeState is %d bytes, budget 80: ID 8 + View 8 + FirstFrom 8 + three *Packet 24 + DesignatedBy 24 + "+
			"one word for the receipt counter (4) and the three flags; no per-receipt log, no by-value Packet", got)
	}
	if got := unsafe.Sizeof(txItem{}); got > 48 {
		t.Errorf("txItem is %d bytes, budget 48: *Packet 8 + designated 24 + session/to/attempt 4 each, padded", got)
	}
}

// scribbler floods and, on every receipt, writes to the delivered packet's
// header — the bug class the simdebug sharing guard exists for.
type scribbler struct{}

func (scribbler) Name() string                 { return "scribbler" }
func (scribbler) Init(Runtime)                 {}
func (scribbler) Start(rt Runtime, source int) { rt.Transmit(source, nil) }
func (scribbler) OnTimer(Runtime, int)         {}
func (scribbler) OnReceive(rt Runtime, v int, r Receipt) {
	r.Packet.Source = v
	rt.Transmit(v, nil)
}

// TestSimdebugCatchesWriteToDeliveredPacket: every receiver of a transmission
// holds the same Packet, so a write through one receipt corrupts the others;
// simdebug builds must catch it at the end of the run and name the packet.
func TestSimdebugCatchesWriteToDeliveredPacket(t *testing.T) {
	if !debugChecks {
		t.Skip("the packet fingerprint guard is compiled in with -tags simdebug only")
	}
	g, err := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "written to after it was built") {
			t.Fatalf("run ended with %q, want the packet-sharing panic", msg)
		}
	}()
	_, _ = Run(g, 0, scribbler{}, Config{})
}

// TestSimdebugCatchesGraphEditedInPlace: an Arena keys its built views by the
// topology's pointer, so a graph edited between two runs on one Arena would be
// served the views of what it used to be; simdebug builds must catch the hit
// and name the first node whose view is stale.
func TestSimdebugCatchesGraphEditedInPlace(t *testing.T) {
	if !debugChecks {
		t.Skip("the view-key guard is compiled in with -tags simdebug only")
	}
	g, err := graph.FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	if _, err := RunWith(arena, g, 0, flooder{}, Config{Hops: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(arena, g, 0, flooder{}, Config{Hops: 2}); err != nil {
		t.Fatal(err) // an untouched graph is a clean hit
	}
	if err := g.AddEdge(2, 4); err != nil { // 4 comes within two hops of node 1; node 0 sees no change
		t.Fatal(err)
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "2-hop view of node 1 no longer matches") {
			t.Fatalf("run ended with %q, want the stale-view panic naming node 1", msg)
		}
	}()
	_, _ = RunWith(arena, g, 0, flooder{}, Config{Hops: 2})
}

// flooder is scribbler without the bug.
type flooder struct{ scribbler }

func (flooder) OnReceive(rt Runtime, v int, _ Receipt) { rt.Transmit(v, nil) }
