package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/hello"
	"adhocbcast/internal/protocol"
	rt "adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"
)

// countOps reads a journal file and counts records with the given op (and,
// when msg >= 0, matching message id).
func countOps(t *testing.T, path, op string, msg int64) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open journal %s: %v", path, err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var rec struct {
			Op  string `json:"op"`
			Msg int64  `json:"msg"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn final line
		}
		if rec.Op == op && (msg < 0 || rec.Msg == msg) {
			n++
		}
	}
	return n
}

// journalContains polls until the journal file holds at least one record of
// the given op, proving the record is durable on disk.
func journalContains(t *testing.T, path, op string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil && countOps(t, path, op, -1) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("journal %s never recorded a %q op", path, op)
}

// TestJournalReplayNoDuplicateForward kills a 2-node network after a
// completed wave (pipes just end, as a SIGKILL looks to the peer) and brings
// up a successor on the same journal directory: both nodes must replay to the
// delivered state, the journals must hold exactly one forward record each
// (replay restored the transmissions instead of re-running them), and
// re-broadcasting the same message must not add another.
func TestJournalReplayNoDuplicateForward(t *testing.T) {
	dir := t.TempDir()
	cfg := rt.Config{
		Protocol:   protocol.Flooding,
		TimeScale:  time.Millisecond,
		JournalDir: dir,
	}
	h := newHarness(t, 2, cfg, nil)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))
	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(7)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	h.waitDelivered("n0", 7)
	h.waitDelivered("n1", 7)
	// Both forwards must be durable before the kill (write-ahead rule).
	journalContains(t, filepath.Join(dir, "n0.journal"), "forward")
	journalContains(t, filepath.Join(dir, "n1.journal"), "forward")
	h.close()

	h2 := newHarness(t, 2, cfg, nil)
	h2.initAll()
	h2.topologyAll(pathAdjacency(h2.names))
	for _, name := range h2.names {
		b := h2.rpc(name, rt.Body{Type: "status"})
		if b.Boots != 2 || b.Replays != 1 {
			t.Errorf("%s: boots=%d replays=%d, want 2/1", name, b.Boots, b.Replays)
		}
		found := false
		for _, m := range b.Messages {
			if m == 7 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s lost message 7 across the restart: %+v", name, b)
		}
	}
	// A replayed node must not re-forward, not even when the wave is
	// re-injected.
	if b := h2.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(7)}); b.Type != "broadcast_ok" {
		t.Fatalf("re-broadcast: got %+v", b)
	}
	time.Sleep(100 * time.Millisecond)
	h2.close()
	for _, name := range []string{"n0", "n1"} {
		if got := countOps(t, filepath.Join(dir, name+".journal"), "forward", 7); got != 1 {
			t.Errorf("%s journal holds %d forward records for message 7, want exactly 1", name, got)
		}
	}
}

// TestRestartMidNACK is the crash window the journal exists for: n1 detects a
// garbled copy and NACKs n0; n0 journals the obligation and dies before the
// (deliberately huge) retry backoff elapses. The successor process must honor
// the journaled obligation — retransmit without re-forwarding — and a
// seed-matched simulator run of the same loss-and-recovery wave must agree on
// the outcome (everyone delivers, both nodes forward), making the crash
// semantically invisible.
func TestRestartMidNACK(t *testing.T) {
	dir := t.TempDir()
	var dropped int32
	filter := func(env rt.Envelope) []rt.Envelope {
		if env.Src == "n0" && env.Dest == "n1" && env.Body.Type == "pkt" &&
			atomic.CompareAndSwapInt32(&dropped, 0, 1) {
			g := env
			g.Body = rt.Body{Type: "garble", From: env.Body.From, Attempt: env.Body.Attempt, Message: env.Body.Message}
			return []rt.Envelope{g}
		}
		return []rt.Envelope{env}
	}
	h := newHarness(t, 2, rt.Config{
		Protocol:     protocol.Flooding,
		TimeScale:    time.Millisecond,
		NACKRecovery: true,
		RetryBackoff: 1e6, // the retransmit must not fire in this life
		JournalDir:   dir,
	}, filter)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))
	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(3)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	// Wait for the NACK obligation to be durable at n0, then kill everything.
	journalContains(t, filepath.Join(dir, "n0.journal"), "nack")
	h.close()
	if got := countOps(t, filepath.Join(dir, "n0.journal"), "nack_done", -1); got != 0 {
		t.Fatalf("n0 retransmitted before the kill (%d nack_done records); the crash window closed", got)
	}

	// Successor life: default (short) backoff. Replay must find the unmet
	// obligation and retransmit from the restored sent packet.
	h2 := newHarness(t, 2, rt.Config{
		Protocol:     protocol.Flooding,
		TimeScale:    time.Millisecond,
		NACKRecovery: true,
		JournalDir:   dir,
	}, nil)
	h2.initAll()
	h2.topologyAll(pathAdjacency(h2.names))
	h2.waitDelivered("n1", 3)
	h2.waitDelivered("n0", 3)
	time.Sleep(50 * time.Millisecond)
	h2.close()
	if got := countOps(t, filepath.Join(dir, "n0.journal"), "forward", 3); got != 1 {
		t.Errorf("n0 journal holds %d forward records, want exactly 1 (no duplicate forward across replay)", got)
	}
	if got := countOps(t, filepath.Join(dir, "n0.journal"), "nack_done", -1); got == 0 {
		t.Error("n0 never honored the journaled NACK obligation")
	}
	liveForwards := 0
	for _, name := range []string{"n0", "n1"} {
		liveForwards += countOps(t, filepath.Join(dir, name+".journal"), "forward", 3)
	}

	// Seed-matched simulator arm: the same wave shape — first copy n0->n1
	// lost detectably, recovered by NACK retransmission — without any crash.
	// Crash recovery is transparent, so outcomes must agree exactly.
	g, err := graph.FromEdges(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	agreed := false
	for seed := int64(1); seed <= 64; seed++ {
		res, err := sim.Run(g, 0, protocol.Flooding(), sim.Config{
			LossRate:     0.4,
			NACKRecovery: true,
			Seed:         seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Lost == 0 {
			continue // this seed never exercised the recovery path
		}
		if res.Delivered != 2 {
			t.Fatalf("sim seed %d: recovery failed to deliver (%d/2)", seed, res.Delivered)
		}
		if len(res.Forward) != liveForwards {
			t.Fatalf("sim forwards %d != live forwards %d: crash recovery was not transparent",
				len(res.Forward), liveForwards)
		}
		agreed = true
		break
	}
	if !agreed {
		t.Fatal("no seed in 1..64 exercised the sim recovery path")
	}
}

// TestRejoinViaBeacons restarts a journaled network with hello maintenance
// on: a restarted node must come up with a provably stale view (empty
// staleness clocks), hold that state until every view-neighbor beacons, and
// then count a completed rejoin.
func TestRejoinViaBeacons(t *testing.T) {
	dir := t.TempDir()
	cfg := rt.Config{
		Protocol:     protocol.Flooding,
		TimeScale:    time.Millisecond,
		JournalDir:   dir,
		DynamicHello: &hello.Dynamic{Interval: 50},
	}
	h := newHarness(t, 2, cfg, nil)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))
	if b := h.rpc("n0", rt.Body{Type: "status"}); b.Stale {
		t.Error("first-boot node reports a stale view (topology push is beacon round 0)")
	}
	h.close()

	h2 := newHarness(t, 2, cfg, nil)
	h2.initAll()
	h2.topologyAll(pathAdjacency(h2.names))
	if b := h2.rpc("n0", rt.Body{Type: "status"}); !b.Stale {
		t.Error("restarted node trusts its view before any neighbor beaconed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		b := h2.rpc("n0", rt.Body{Type: "status"})
		if !b.Stale && b.Rejoins == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n0 never rejoined: %+v", b)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAntiEntropyRepair cuts n2 off (the router drops everything to and from
// it — a down node, as the survivors see one) through a full wave, then heals
// the cut: the next hello beacon advertising the forwarded message must drive
// n2 to NACK it back and deliver, without any retransmission of the wave
// itself.
func TestAntiEntropyRepair(t *testing.T) {
	var isolated int32
	filter := func(env rt.Envelope) []rt.Envelope {
		if atomic.LoadInt32(&isolated) == 1 && (env.Dest == "n2" || env.Src == "n2") {
			return nil
		}
		return []rt.Envelope{env}
	}
	h := newHarness(t, 3, rt.Config{
		Protocol:     protocol.Flooding,
		TimeScale:    time.Millisecond,
		NACKRecovery: true,
		DynamicHello: &hello.Dynamic{Interval: 20},
	}, filter)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))
	atomic.StoreInt32(&isolated, 1)
	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(5)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	h.waitDelivered("n0", 5)
	h.waitDelivered("n1", 5)
	// Lift the cut only once n1's status shows the forward: status replies
	// travel the same ordered pipe as the forwarded pkt, so by then the copy
	// for n2 has already been dropped by the router.
	deadline := time.Now().Add(10 * time.Second)
	for {
		b := h.rpc("n1", rt.Body{Type: "status"})
		forwarded := false
		for _, m := range b.Forwarded {
			if m == 5 {
				forwarded = true
			}
		}
		if forwarded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n1 never forwarded: %+v", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	atomic.StoreInt32(&isolated, 0)
	h.waitDelivered("n2", 5)
	if b := h.rpc("n2", rt.Body{Type: "status"}); b.NACKs == 0 {
		t.Errorf("n2 recovered the wave without anti-entropy NACKs: %+v", b)
	}
}

// TestLengthFramerMalformed hand-crafts damaged frames: an oversized length
// prefix, or an oversized line in line framing, must be discarded (payload
// skipped, stream resynced) and a truncated prefix or payload must surface
// as a clean counted drop — never a hang, a panic, or an unbounded
// allocation.
func TestLengthFramerMalformed(t *testing.T) {
	valid := func(s string) []byte {
		var b bytes.Buffer
		f := &lengthFramer{w: &b}
		if err := f.WriteFrame([]byte(s)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	t.Run("oversized then resync", func(t *testing.T) {
		var b bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		b.Write(hdr[:])
		b.Write(make([]byte, maxFrame+1)) // the payload to skip
		b.Write(valid(`{"a":1}`))
		f := &lengthFramer{r: &b}
		if _, err := f.ReadFrame(); err != errFrameOversize {
			t.Fatalf("oversized frame: got %v, want errFrameOversize", err)
		}
		got, err := f.ReadFrame()
		if err != nil || string(got) != `{"a":1}` {
			t.Fatalf("after resync: got %q, %v", got, err)
		}
	})

	t.Run("oversized line then resync", func(t *testing.T) {
		in := append(bytes.Repeat([]byte("x"), maxFrame+1), '\n')
		in = append(in, `{"src":"c0","dest":"n0","body":{"type":"read"}}`+"\n"...)
		if _, err := newLineFramer(bytes.NewReader(in), io.Discard).ReadFrame(); err != errFrameOversize {
			t.Fatalf("oversized line: got %v, want errFrameOversize", err)
		}
		w := &stdioWire{fr: newLineFramer(bytes.NewReader(in), io.Discard)}
		env, err := w.Recv()
		if err != nil || env.Body.Type != "read" {
			t.Fatalf("after resync: got %+v, %v", env, err)
		}
		if got := w.Drops(); got != 1 {
			t.Errorf("drops = %d, want 1 (the oversized line)", got)
		}
	})

	t.Run("truncated prefix", func(t *testing.T) {
		f := &lengthFramer{r: bytes.NewReader([]byte{0, 0})}
		if _, err := f.ReadFrame(); err != errFrameTruncated {
			t.Fatalf("got %v, want errFrameTruncated", err)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		frame := valid(`{"a":1}`)
		f := &lengthFramer{r: bytes.NewReader(frame[:len(frame)-2])}
		if _, err := f.ReadFrame(); err != errFrameTruncated {
			t.Fatalf("got %v, want errFrameTruncated", err)
		}
	})

	t.Run("oversized truncated payload", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		f := &lengthFramer{r: bytes.NewReader(hdr[:])}
		if _, err := f.ReadFrame(); err != errFrameTruncated {
			t.Fatalf("got %v, want errFrameTruncated", err)
		}
	})
}

// TestStdioWireDrops feeds a length-framed stream holding an oversized frame,
// an undecodable frame, a valid rt.Envelope, and a truncated tail: recv must
// deliver the rt.Envelope, count three drops, and end in a clean EOF.
func TestStdioWireDrops(t *testing.T) {
	var b bytes.Buffer
	out := &lengthFramer{w: &b}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	b.Write(hdr[:])
	b.Write(make([]byte, maxFrame+1))
	if err := out.WriteFrame([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	if err := out.WriteFrame([]byte(`{"src":"c0","dest":"n0","body":{"type":"read"}}`)); err != nil {
		t.Fatal(err)
	}
	b.Write([]byte{0, 0}) // truncated tail

	w := &stdioWire{fr: &lengthFramer{r: &b}}
	env, err := w.Recv()
	if err != nil || env.Body.Type != "read" {
		t.Fatalf("recv: got %+v, %v", env, err)
	}
	if _, err := w.Recv(); err != io.EOF {
		t.Fatalf("after truncated tail: got %v, want io.EOF", err)
	}
	if got := w.Drops(); got != 3 {
		t.Errorf("drops = %d, want 3 (oversized, undecodable, truncated)", got)
	}
}

// TestUDPWireDropsAndPeers sends a malformed datagram before a valid one (the
// noise must be a counted drop, not a hang or crash) and exercises the
// runtime peer-address update path.
func TestUDPWireDropsAndPeers(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	w := newUDPWire(conn, nil)
	addr := conn.LocalAddr().(*net.UDPAddr)
	if _, err := client.WriteToUDP([]byte("{{{ not json"), addr); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WriteToUDP([]byte(`{"src":"c0","dest":"n0","body":{"type":"read"}}`), addr); err != nil {
		t.Fatal(err)
	}
	env, err := w.Recv()
	if err != nil || env.Body.Type != "read" {
		t.Fatalf("recv: got %+v, %v", env, err)
	}
	if got := w.Drops(); got != 1 {
		t.Errorf("drops = %d, want 1", got)
	}
	// The valid datagram taught the wire the client's address; a peers update
	// must be able to override it and to install new names.
	if err := w.UpdatePeers(map[string]string{"n9": client.LocalAddr().String()}); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(rt.Envelope{Src: "n0", Dest: "n9", Body: rt.Body{Type: "read_ok"}}); err != nil {
		t.Fatalf("send to updated peer: %v", err)
	}
	buf := make([]byte, 1024)
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := client.ReadFromUDP(buf); err != nil {
		t.Fatalf("updated peer never got the rt.Envelope: %v", err)
	}
	if err := w.UpdatePeers(map[string]string{"bad": "not-an-address:::"}); err == nil {
		t.Error("unresolvable peer address accepted")
	}
}

// FuzzLengthFramer feeds arbitrary bytes to a length-framed and to a
// line-framed stdio wire: the bytes must yield envelopes or end the stream,
// every bad frame must be a counted drop, and no frame buffer may exceed
// maxFrame (plus a line's newline) — whatever a length prefix claims or
// however long a line runs.
func FuzzLengthFramer(f *testing.F) {
	frame := func(s string) []byte {
		var b bytes.Buffer
		(&lengthFramer{w: &b}).WriteFrame([]byte(s))
		return b.Bytes()
	}
	read := frame(`{"src":"c0","dest":"n0","body":{"type":"read"}}`)
	f.Add(read)
	f.Add(append(frame("not json"), read...))
	f.Add(append(frame(""), read[:len(read)-3]...))
	f.Add([]byte{0x00, 0x10, 0x00, 0x01, '{', '}'}) // one byte past maxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// One line a byte past maxFrame, then a good line.
	f.Add(append(append(bytes.Repeat([]byte("{"), maxFrame+1), '\n'), read[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFramer(t, data, func(r io.Reader) framer { return &lengthFramer{r: r} }, maxFrame)
		checkFramer(t, data, func(r io.Reader) framer { return newLineFramer(r, io.Discard) }, maxFrame+1)
	})
}

// checkFramer cuts data into frames with a framer from mk, then reads it
// through a stdio wire over the same framing: the wire must hand over
// exactly the good frames, count the bad ones, and end cleanly.
func checkFramer(t *testing.T, data []byte, mk func(io.Reader) framer, limit int) {
	t.Helper()
	// What the framer alone makes of the bytes.
	fr := mk(bytes.NewReader(data))
	bad, good := 0, 0
	for i := 0; ; i++ {
		if i > len(data) {
			t.Fatal("the framer stopped advancing")
		}
		b, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err == errFrameOversize || err == errFrameTruncated {
			bad++
			if err == errFrameTruncated {
				break
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if cap(b) > limit {
			t.Fatalf("frame %d holds a %d-byte buffer, over %d", i, cap(b), limit)
		}
		var env rt.Envelope
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		if json.Unmarshal(b, &env) != nil {
			bad++
			continue
		}
		good++
	}
	w := &stdioWire{fr: mk(bytes.NewReader(data))}
	envs := 0
	for {
		_, err := w.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		envs++
	}
	if envs != good || w.Drops() != int64(bad) {
		t.Fatalf("wire: %d envelopes and %d drops, framer saw %d good and %d bad frames", envs, w.Drops(), good, bad)
	}
}
