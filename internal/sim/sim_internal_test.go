package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"adhocbcast/internal/core"
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

// TestStateFootprint pins the simulator's per-item footprints so they cannot
// creep back: an event is what every scheduled action costs in the calendar
// queue (and what its sifts and batch copies move), a NodeState is what
// every node — and every node of every traffic session — costs, a txItem
// what every queued contention-MAC transmission costs. An event also holds
// no pointer, so moving one needs no GC write barrier.
func TestStateFootprint(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 40 {
		t.Errorf("event is %d bytes, budget 40: at 8 + seq 8 + node/peer/attempt/session/pkt slot 4 each + kind 1, padded; "+
			"packets and receipts are referred to by slot, never embedded", got)
	}
	if f, ok := pointerField(reflect.TypeOf(event{})); ok {
		t.Errorf("event field %s holds a pointer; name packets by slab slot", f)
	}
	if got := unsafe.Sizeof(NodeState{}); got > 80 {
		t.Errorf("NodeState is %d bytes, budget 80: ID 8 + View 8 + FirstFrom 8 + three *Packet 24 + DesignatedBy 24 + "+
			"one word for the receipt counter (4), the three flags and the precompute verdict byte; no per-receipt log, no by-value Packet", got)
	}
	if got := unsafe.Sizeof(txItem{}); got > 40 {
		t.Errorf("txItem is %d bytes, budget 40: designated 24 + pkt slot/session/to/attempt 4 each", got)
	}
}

// pointerField returns the first field of struct type st whose type is or
// holds a pointer (a pointer, slice, map, channel, function, interface or
// string, or an array or struct holding one).
func pointerField(st reflect.Type) (string, bool) {
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i); holdsPointer(f.Type) {
			return f.Name, true
		}
	}
	return "", false
}

func holdsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && holdsPointer(t.Elem())
	case reflect.Struct:
		_, ok := pointerField(t)
		return ok
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// scribbler floods and, on every receipt, writes to the delivered packet's
// header — the bug class the simdebug sharing guard exists for.
type scribbler struct{}

func (scribbler) Name() string                 { return "scribbler" }
func (scribbler) Init(Runtime)                 {}
func (scribbler) Start(rt Runtime, source int) { rt.Transmit(source, nil, nil) }
func (scribbler) OnTimer(Runtime, int)         {}
func (scribbler) OnReceive(rt Runtime, v int, r Receipt) {
	r.Packet.Source = v
	rt.Transmit(v, nil, nil)
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

// flooder is scribbler without the bug.
type flooder struct{ scribbler }

func (flooder) OnReceive(rt Runtime, v int, _ Receipt) { rt.Transmit(v, nil, nil) }

// settler is flooder that takes every node's settled verdict at Init: the
// pristine one a static protocol takes, or, with dynamic set, the one a timer
// takes.
type settler struct {
	flooder
	dynamic bool
	s       *Settled
}

func (p *settler) SettleCondition() (int, func(*NodeState, *core.Evaluator) bool, bool) {
	return 1, func(st *NodeState, ev *core.Evaluator) bool { return ev.Covered(st.View) }, true
}
func (p *settler) UseSettled(s *Settled) { p.s = s }
func (p *settler) Init(rt Runtime) {
	rt.ForEachLocalNode(func(v int) {
		if p.dynamic {
			p.s.Covered(rt.State(v), rt.Evaluator())
		} else {
			p.s.Pristine(rt.State(v), rt.Evaluator())
		}
	})
}

// TestSimdebugCatchesWrongSettledVerdict: every settled verdict a run takes
// stands for an evaluation it skips on the strength of the settling lemma;
// simdebug builds evaluate it anyway and must name the node whose view
// disagrees. On the path 0-1-2 with 2-hop views node 1 alone is uncovered;
// once its bit is set, both the static and the timer-time verdict of node 1
// must panic.
func TestSimdebugCatchesWrongSettledVerdict(t *testing.T) {
	if !debugChecks {
		t.Skip("the settled-verdict cross-check is compiled in with -tags simdebug only")
	}
	g, err := graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, dynamic := range []bool{false, true} {
		t.Run(fmt.Sprint("dynamic=", dynamic), func(t *testing.T) {
			arena := NewArena()
			if _, err := RunWith(arena, g, 0, &settler{dynamic: dynamic}, Config{Hops: 2}); err != nil {
				t.Fatal(err) // the bits as the pass left them are right
			}
			if bits := arena.settled.bits[0]; bits != 0b101 {
				t.Fatalf("settled bits %03b, want 101", bits)
			}
			arena.settled.bits[0] |= 1 << 1
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "node 1: settled verdict") {
					t.Fatalf("run ended with %q, want the settled-verdict panic naming node 1", msg)
				}
			}()
			_, _ = RunWith(arena, g, 0, &settler{dynamic: dynamic}, Config{Hops: 2})
		})
	}
}
