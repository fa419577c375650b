package sim_test

import (
	"math/rand"
	"testing"

	"adhocbcast/internal/geo"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// radioFlood forwards at every node's first copy, on the spot: no timers.
type radioFlood struct{}

func (radioFlood) Name() string                                   { return "radio-flood" }
func (radioFlood) Init(sim.Runtime)                               {}
func (radioFlood) Start(rt sim.Runtime, v int)                    { rt.Transmit(v, nil, nil) }
func (radioFlood) OnTimer(sim.Runtime, int)                       {}
func (radioFlood) OnReceive(rt sim.Runtime, v int, _ sim.Receipt) { rt.Transmit(v, nil, nil) }

// TestQueuePushesPerTransmission pins the calendar queue's work exactly: a
// wireless broadcast is one queued event, whatever the sender's degree. On a
// connected 100-node, degree-6 geometric graph (seed 1, source 0), a flood
// that forwards on the spot pushes one event per forward and nothing else.
// protocol.Flooding and Generic-FRB push their forwards plus their timers,
// one per node but the source, set at the node's first copy (Flooding's
// self-pruning engine forwards from a zero-delay timer). When every copy was
// its own event these runs pushed Σ deg(v) over the forwards, plus the
// timers: 600, 699 and 336 events where they now push 100, 199 and 140.
func TestQueuePushesPerTransmission(t *testing.T) {
	net, err := geo.Generate(geo.Config{N: 100, AvgDegree: 6}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	arena := sim.NewArena()
	noTimers := func(sim.Result) int { return 0 }
	timerPerReceiver := func(r sim.Result) int { return r.Delivered - 1 }
	for _, tc := range []struct {
		proto  sim.Protocol
		timers func(sim.Result) int
	}{
		{radioFlood{}, noTimers},
		{protocol.Flooding(), timerPerReceiver},
		{protocol.Generic(protocol.TimingBackoffRandom), timerPerReceiver},
	} {
		name := tc.proto.Name()
		res, err := sim.RunWith(arena, net.G, 0, tc.proto, sim.Config{Hops: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.FullDelivery() {
			t.Fatalf("%s: delivered %d of %d", name, res.Delivered, res.N)
		}
		copies := 0
		for _, v := range res.Forward {
			copies += net.G.Degree(v)
		}
		want := len(res.Forward) + tc.timers(res)
		t.Logf("%s: %d forwards, %d copies, %d pushes", name, len(res.Forward), copies, sim.QueuePushes(arena))
		if got := sim.QueuePushes(arena); got != want {
			t.Errorf("%s: %d events pushed, want %d (%d forwards + %d timers)",
				name, got, want, len(res.Forward), tc.timers(res))
		}
		if res.Copies != copies {
			t.Errorf("%s: %d copies, want Σ deg over forwards = %d", name, res.Copies, copies)
		}
	}
}
