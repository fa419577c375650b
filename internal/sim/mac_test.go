package sim_test

import (
	"strings"
	"testing"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

func mustGraph(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	return g
}

func runMAC(t *testing.T, g *graph.Graph, sessions []sim.SessionSpec, cfg sim.Config) (sim.TrafficResult, *sim.Recorder) {
	t.Helper()
	rec := &sim.Recorder{}
	cfg.CarrierSense = true
	cfg.Observer = rec
	res, err := sim.RunTrafficWith(nil, g, sessions, protocol.Flooding, cfg)
	if err != nil {
		t.Fatalf("traffic run: %v", err)
	}
	return res, rec
}

// Hidden terminal: on the path 0-1-2 the endpoints cannot hear each other, so
// carrier sense lets both transmit at once and their copies collide at node 1.
// Without recovery, node 1 never gets either broadcast.
func TestMACHiddenTerminalCollides(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	sessions := []sim.SessionSpec{{Source: 0, At: 0}, {Source: 2, At: 0}}
	res, _ := runMAC(t, g, sessions, sim.Config{Seed: 1})
	if res.Collided != 2 {
		t.Errorf("Collided = %d, want 2 (both copies garbled at node 1)", res.Collided)
	}
	// Each session delivered only at its own source: 2 of 6 pairs.
	if res.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2", res.Delivered)
	}
	if res.Receipts+res.Lost+res.Collided+res.DroppedNodeDown+res.DroppedLinkDown != res.Copies {
		t.Errorf("conservation broken: %+v", res)
	}
}

// Simultaneous in-range starts collide too: on a triangle both sources sense
// an idle channel at t=0 (a transmission starting this instant is invisible)
// and garble each other at the third node — and at each other, half-duplex.
func TestMACSimultaneousInRangeStartsCollide(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	sessions := []sim.SessionSpec{{Source: 0, At: 0}, {Source: 1, At: 0}}
	res, _ := runMAC(t, g, sessions, sim.Config{Seed: 1})
	if res.Collided == 0 {
		t.Errorf("Collided = 0, want > 0: simultaneous starts must not serialize")
	}
	if res.MACDeferrals != 0 {
		t.Errorf("MACDeferrals = %d, want 0: neither source could sense the other's same-instant start", res.MACDeferrals)
	}
}

// A transmission already on the air defers an in-range transmit attempt.
func TestMACCarrierSenseDefers(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {0, 2}, {1, 2}})
	// Session 2 is injected mid-flight of session 1's source transmission.
	sessions := []sim.SessionSpec{{Source: 0, At: 0}, {Source: 1, At: 0.5}}
	res, _ := runMAC(t, g, sessions, sim.Config{Seed: 1})
	if res.MACDeferrals == 0 {
		t.Errorf("MACDeferrals = 0, want > 0: node 1 must sense node 0's transmission")
	}
	if res.Delivered != 6 {
		t.Errorf("Delivered = %d, want 6: deferral avoids the collision entirely", res.Delivered)
	}
}

// Tail drop: a full queue drops arriving packets and records the cause.
func TestMACQueueTailDrop(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	sessions := make([]sim.SessionSpec, 4)
	for i := range sessions {
		sessions[i] = sim.SessionSpec{Source: 0, At: 0}
	}
	res, rec := runMAC(t, g, sessions, sim.Config{Seed: 1, TxQueueCap: 1})
	if res.QueueDrops == 0 {
		t.Fatalf("QueueDrops = 0, want > 0 with TxQueueCap=1 and 4 same-instant sessions")
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == obsv.TraceQueueDrop {
			if e.Cause != obsv.CauseTail {
				t.Errorf("queue-drop cause = %v, want tail", e.Cause)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("no queue-drop trace event recorded")
	}
	if !strings.Contains(rec.Format(), "drops a queued transmission (tail)") {
		t.Errorf("Format() missing queue-drop line:\n%s", rec.Format())
	}
}

// NACK recovery under contention: hidden-terminal collisions are repaired by
// retransmissions that themselves go through the MAC queue.
func TestMACNACKRecoversCollisions(t *testing.T) {
	g := mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	sessions := []sim.SessionSpec{{Source: 0, At: 0}, {Source: 2, At: 0}}
	res, _ := runMAC(t, g, sessions, sim.Config{Seed: 1, NACKRecovery: true, RetryBudget: 4})
	if res.NACKs == 0 || res.Retransmits == 0 {
		t.Fatalf("recovery idle: NACKs=%d Retransmits=%d", res.NACKs, res.Retransmits)
	}
	if res.Delivered != 2*3 {
		t.Errorf("Delivered = %d, want 6: recovery should repair the hidden-terminal collision (res %+v)", res.Delivered, res)
	}
}

// Session ids ride packets end to end: every delivery of session 1 is tagged.
func TestTrafficSessionTagging(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	sessions := []sim.SessionSpec{{Source: 0, At: 0}, {Source: 0, At: 10}}
	rec := &sim.Recorder{}
	res, err := sim.RunTrafficWith(nil, g, sessions, protocol.Flooding, sim.Config{Seed: 1, Observer: rec})
	if err != nil {
		t.Fatalf("traffic run: %v", err)
	}
	if res.Delivered != 8 {
		t.Fatalf("Delivered = %d, want 8", res.Delivered)
	}
	// A deliver event is recorded per delivered copy; count distinct
	// reached nodes per session.
	starts := 0
	reached := map[int]map[int]bool{}
	for _, e := range rec.Events() {
		switch e.Kind {
		case obsv.TraceSessionStart:
			starts++
		case obsv.TraceDeliver:
			if reached[e.Session] == nil {
				reached[e.Session] = map[int]bool{}
			}
			reached[e.Session][e.Node] = true
		}
	}
	if starts != 2 {
		t.Errorf("session-start events = %d, want 2", starts)
	}
	if len(reached) != 2 || len(reached[0]) != 4 || len(reached[1]) != 4 {
		t.Errorf("per-session reached nodes = %v, want all 4 nodes in both sessions", reached)
	}
}

// Config validation: the contention MAC is explicit opt-in and mutually
// exclusive with the legacy models it replaces.
func TestMACConfigValidation(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	bad := []sim.Config{
		{CarrierSense: true, Collisions: true},
		{CarrierSense: true, TxJitter: 0.5},
		{CarrierSense: true, TxQueueCap: -1},
		{TxQueueCap: 3},
	}
	for i, cfg := range bad {
		if _, err := sim.Run(g, 0, protocol.Flooding(), cfg); err == nil {
			t.Errorf("config %d accepted, want error: %+v", i, cfg)
		}
	}
	if _, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{CarrierSense: true}); err != nil {
		t.Errorf("bare CarrierSense rejected: %v", err)
	}
}

// Traffic-run input validation.
func TestRunTrafficValidation(t *testing.T) {
	g := mustGraph(t, 2, [][2]int{{0, 1}})
	mk := protocol.Flooding
	if _, err := sim.RunTrafficWith(nil, g, nil, mk, sim.Config{}); err == nil {
		t.Errorf("empty session list accepted")
	}
	if _, err := sim.RunTrafficWith(nil, g, []sim.SessionSpec{{Source: 0}}, nil, sim.Config{}); err == nil {
		t.Errorf("nil protocol factory accepted")
	}
	if _, err := sim.RunTrafficWith(nil, g, []sim.SessionSpec{{Source: 5}}, mk, sim.Config{}); err == nil {
		t.Errorf("out-of-range source accepted")
	}
	if _, err := sim.RunTrafficWith(nil, g, []sim.SessionSpec{{Source: 0, At: 3}, {Source: 0, At: 1}}, mk, sim.Config{}); err == nil {
		t.Errorf("decreasing injection times accepted")
	}
	if _, err := sim.RunTrafficWith(nil, g, []sim.SessionSpec{{Source: 0}}, mk, sim.Config{
		Views: sim.PerNodeViews{Views: sameViews(g, g)},
	}); err == nil {
		t.Errorf("per-node views accepted in traffic run")
	}
}
