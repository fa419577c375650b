package runtime

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestTrafficMessageIDs pins the id tagging: self-injected ids stay disjoint
// from small harness ids and from other sources' streams.
func TestTrafficMessageIDs(t *testing.T) {
	if got := trafficMessageID(0, 0); got != 1<<32 {
		t.Errorf("trafficMessageID(0,0) = %d, want 2^32", got)
	}
	if trafficMessageID(1, 0) == trafficMessageID(0, 1<<31) {
		t.Error("source streams overlap")
	}
}

// TestBroadcastRejectsTrafficIDs: a harness broadcast whose id is in the
// range trafficMessageID reserves for self-injected waves would merge with
// such a wave, so the node refuses it as malformed and starts no wave; the
// id just below the range starts one.
func TestBroadcastRejectsTrafficIDs(t *testing.T) {
	cfg, err := Config{Protocol: protocol.Flooding}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	w := &recWire{}
	n := newNode(cfg, w, nil)
	n.clk = &stepClock{}
	n.handle(Envelope{Src: "c0", Body: Body{Type: "init", NodeID: "n0", NodeIDs: []string{"n0", "n1"}}})
	n.handle(Envelope{Src: "c0", Body: Body{Type: "topology",
		Topology: map[string][]string{"n0": {"n1"}, "n1": {"n0"}}}})
	for _, tc := range []struct {
		msg  int64
		want string
	}{
		{1<<32 - 1, "broadcast_ok"},
		{trafficMessageID(0, 0), "error"},
		{trafficMessageID(1, 3), "error"},
		{math.MaxInt64, "error"},
	} {
		msg := tc.msg
		w.sent = w.sent[:0]
		n.handle(Envelope{Src: "c0", Body: Body{Type: "broadcast", MsgID: 9, Message: &msg}})
		var reply *Body
		for i := range w.sent {
			if w.sent[i].Body.InReplyTo == 9 {
				reply = &w.sent[i].Body
			}
		}
		if reply == nil || reply.Type != tc.want {
			t.Fatalf("broadcast %d: reply %+v, want %s", msg, reply, tc.want)
		}
		if tc.want == "error" && reply.Code != errMalformed {
			t.Errorf("broadcast %d: error code %d, want %d", msg, reply.Code, errMalformed)
		}
		if _, started := n.waves[msg]; started != (tc.want == "broadcast_ok") {
			t.Errorf("broadcast %d: wave started = %v", msg, started)
		}
	}
}

// TestConfigFieldCounts pins the exported knobs of the live executor, so the
// next one is a reviewed one-line diff.
func TestConfigFieldCounts(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want int
	}{
		{Config{}, 19},
		{CoreConfig{}, 10},
	} {
		typ := reflect.TypeOf(tc.cfg)
		got := 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("%s has %d exported fields, want %d", typ, got, tc.want)
		}
	}
}

// recWire records what a node sends; nothing arrives on it.
type recWire struct{ sent []Envelope }

func (w *recWire) Recv() (Envelope, error) { return Envelope{}, os.ErrClosed }
func (w *recWire) Send(env Envelope) error { w.sent = append(w.sent, env); return nil }
func (w *recWire) Drops() int64            { return 0 }

// stepClock holds a node's timers until the test fires them, in the order
// they were set; time stands still.
type stepClock struct{ pending []func() }

func (c *stepClock) now() float64                       { return 0 }
func (c *stepClock) after(_ float64, _ bool, fn func()) { c.pending = append(c.pending, fn) }

// replayLife runs one incarnation of node n1 of the path n0-n1-n2 on the
// journal in dir: init (which opens the journal), topology (which replays
// it), then every timer that replay set.
func replayLife(t *testing.T, dir string) {
	t.Helper()
	cfg, err := Config{Protocol: protocol.Flooding, NACKRecovery: true, JournalDir: dir}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	w, clk := &recWire{}, &stepClock{}
	n := newNode(cfg, w, nil)
	n.clk = clk
	n.handle(Envelope{Src: "c0", Body: Body{Type: "init", NodeID: "n1", NodeIDs: []string{"n0", "n1", "n2"}}})
	if b := w.sent[0].Body; b.Type != "init_ok" {
		t.Fatalf("init: %+v", b)
	}
	n.handle(Envelope{Src: "c0", Body: Body{Type: "topology",
		Topology: map[string][]string{"n0": {"n1"}, "n1": {"n0", "n2"}, "n2": {"n1"}}}})
	for fired := 0; len(clk.pending) > 0; fired++ {
		if fired > 1000 {
			t.Fatal("replay keeps setting timers")
		}
		fn := clk.pending[0]
		clk.pending = clk.pending[1:]
		fn()
	}
	if n.journal == nil {
		t.Fatal("journaling failed")
	}
	if err := n.journal.af.Close(); err != nil {
		t.Fatal(err)
	}
}

// forwards counts the forward records of each message.
func forwards(ops []journalOp) map[int64]int {
	c := make(map[int64]int)
	for _, op := range ops {
		if op.Op == "forward" {
			c[op.Msg]++
		}
	}
	return c
}

// journalSeed renders ops as journal lines.
func journalSeed(ops ...journalOp) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		line, _ := json.Marshal(op)
		b.Write(append(line, '\n'))
	}
	return b.Bytes()
}

// FuzzJournalReplay feeds torn, duplicated and reordered journal bytes to a
// restarting node. openJournal must accept any bytes (it fails only on I/O);
// replay must never forward a message the journal records a forward for;
// and the next life must read every record this one appended.
func FuzzJournalReplay(f *testing.F) {
	pkt := &sim.Packet{Source: 0, Trail: []sim.TrailEntry{{Node: 0, Designated: []int{1}}}}
	fwd := &sim.Packet{Source: 0, Trail: []sim.TrailEntry{{Node: 0, Designated: []int{1}}, {Node: 1}}}
	life := journalSeed(
		journalOp{Op: "boot"},
		journalOp{Op: "source", Msg: 1},
		journalOp{Op: "forward", Msg: 1, Packet: &sim.Packet{Source: 1, Trail: []sim.TrailEntry{{Node: 1}}}},
		journalOp{Op: "deliver", Msg: 2, Packet: pkt},
		journalOp{Op: "forward", Msg: 2, Packet: fwd},
		journalOp{Op: "nack", Msg: 2, From: 2, Attempt: 1},
		journalOp{Op: "deliver", Msg: 3, From: 2, Packet: pkt},
	)
	f.Add(life)
	f.Add(life[:len(life)-9])                         // torn final record
	f.Add(append(append([]byte{}, life...), life...)) // a second copy of every record
	f.Add(journalSeed(
		journalOp{Op: "deliver", Msg: 2, Packet: pkt}, // delivery before the forward it caused
		journalOp{Op: "nack_done", Msg: 2, From: 2, Attempt: 1},
		journalOp{Op: "forward", Msg: 2},
		journalOp{Op: "nack", Msg: 2, From: 7, Attempt: 1},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "n1.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, prior, boots, err := openJournal(path)
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		j.af.Close()
		// Start over from the fuzzed bytes: the probe above appended a boot.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		replayLife(t, dir)
		j, next, nextBoots, err := openJournal(path)
		if err != nil {
			t.Fatalf("second openJournal: %v", err)
		}
		j.af.Close()
		if nextBoots != boots+1 || len(next) < len(prior) {
			t.Fatalf("next life reads %d boots and %d ops, want %d and >= %d", nextBoots, len(next), boots+1, len(prior))
		}
		// Every forward goes on record before it goes on the air.
		after := forwards(next)
		for m, c := range forwards(prior) {
			if after[m] != c {
				t.Fatalf("replay forwarded message %d again", m)
			}
		}
	})
}

// TestLoopClockBeyondDurationNeverFires: a delay past time.Duration's range,
// such as a -hello-interval of 1e300 units, must never fire. Converted
// unchecked it wrapped negative and fired at once, so the beacon re-armed
// itself in a tight loop.
func TestLoopClockBeyondDurationNeverFires(t *testing.T) {
	n, err := NewNode(Config{Protocol: protocol.Flooding}, &recWire{})
	if err != nil {
		t.Fatal(err)
	}
	n.clk.after(1e300, false, func() {})
	time.Sleep(50 * time.Millisecond)
	if len(n.loop) != 0 {
		t.Fatal("a 1e300-unit timer fired")
	}
}
