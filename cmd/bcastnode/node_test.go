package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adhocbcast/internal/protocol"
	rt "adhocbcast/internal/runtime"
	"adhocbcast/internal/sim"
)

// harness wires N in-process nodes together over stdio pipes, playing the
// maelstrom router's role: every rt.Envelope a node emits is decoded, passed
// through an optional filter (the nemesis hook), and delivered to its
// destination node's stdin, or to the test client for "c*" destinations.
type harness struct {
	t      *testing.T
	names  []string
	index  map[string]int
	nodes  []*rt.Node
	inW    []*io.PipeWriter
	inMu   []sync.Mutex
	enc    []*json.Encoder
	client chan rt.Envelope
	filter func(env rt.Envelope) []rt.Envelope
	msgID  int
	wg     sync.WaitGroup
}

// newHarness starts n nodes named n0..n{n-1}. filter may be nil (identity);
// it runs on router goroutines and must be safe for concurrent use.
func newHarness(t *testing.T, n int, cfg rt.Config, filter func(env rt.Envelope) []rt.Envelope) *harness {
	t.Helper()
	h := &harness{
		t:      t,
		index:  make(map[string]int, n),
		client: make(chan rt.Envelope, 256),
		filter: filter,
		inMu:   make([]sync.Mutex, n),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		h.names = append(h.names, name)
		h.index[name] = i
	}
	for i := 0; i < n; i++ {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		node, err := rt.NewNode(cfg, &stdioWire{fr: newLineFramer(inR, outW)})
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, node)
		h.inW = append(h.inW, inW)
		h.enc = append(h.enc, json.NewEncoder(inW))
		h.wg.Add(2)
		go func() {
			defer h.wg.Done()
			defer outW.Close()
			if err := node.Run(); err != nil {
				t.Errorf("node run: %v", err)
			}
		}()
		go func() {
			defer h.wg.Done()
			h.route(outR)
		}()
	}
	t.Cleanup(h.close)
	return h
}

// close shuts every node down (abruptly, from the nodes' point of view: pipes
// just end) and waits for the routers to drain. Safe to call twice; restart
// tests call it mid-test before bringing up a successor harness on the same
// journal directory.
func (h *harness) close() {
	for _, w := range h.inW {
		w.Close()
	}
	h.wg.Wait()
}

func (h *harness) route(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var env rt.Envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			h.t.Errorf("router: bad frame %q: %v", sc.Text(), err)
			continue
		}
		out := []rt.Envelope{env}
		if h.filter != nil {
			out = h.filter(env)
		}
		for _, e := range out {
			h.deliver(e)
		}
	}
}

func (h *harness) deliver(env rt.Envelope) {
	if strings.HasPrefix(env.Dest, "c") {
		h.client <- env
		return
	}
	i, ok := h.index[env.Dest]
	if !ok {
		h.t.Errorf("router: rt.Envelope for unknown node %q", env.Dest)
		return
	}
	h.inMu[i].Lock()
	defer h.inMu[i].Unlock()
	// Encode writes the document and its trailing newline in one Write, so
	// concurrent routers interleave whole frames only.
	if err := h.enc[i].Encode(env); err != nil && err != io.ErrClosedPipe {
		h.t.Errorf("router: deliver to %s: %v", env.Dest, err)
	}
}

// rpc sends body b to a node as the client and waits for the matching reply.
func (h *harness) rpc(dest string, b rt.Body) rt.Body {
	h.t.Helper()
	h.msgID++
	b.MsgID = h.msgID
	h.deliverClient(rt.Envelope{Src: "c0", Dest: dest, Body: b})
	deadline := time.After(10 * time.Second)
	for {
		select {
		case env := <-h.client:
			if env.Body.InReplyTo == b.MsgID {
				return env.Body
			}
		case <-deadline:
			h.t.Fatalf("rpc %s to %s: no reply", b.Type, dest)
		}
	}
}

func (h *harness) deliverClient(env rt.Envelope) {
	i := h.index[env.Dest]
	h.inMu[i].Lock()
	defer h.inMu[i].Unlock()
	if err := h.enc[i].Encode(env); err != nil {
		h.t.Fatalf("client send to %s: %v", env.Dest, err)
	}
}

// initAll runs the init handshake on every node.
func (h *harness) initAll() {
	h.t.Helper()
	for _, name := range h.names {
		if b := h.rpc(name, rt.Body{Type: "init", NodeID: name, NodeIDs: h.names}); b.Type != "init_ok" {
			h.t.Fatalf("init %s: got %+v", name, b)
		}
	}
}

// topologyAll pushes the same full adjacency to every node.
func (h *harness) topologyAll(adj map[string][]string) {
	h.t.Helper()
	for _, name := range h.names {
		if b := h.rpc(name, rt.Body{Type: "topology", Topology: adj}); b.Type != "topology_ok" {
			h.t.Fatalf("topology %s: got %+v", name, b)
		}
	}
}

// waitDelivered polls read on dest until messages contains msg.
func (h *harness) waitDelivered(dest string, msg int64) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		b := h.rpc(dest, rt.Body{Type: "read"})
		for _, m := range b.Messages {
			if m == msg {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("node %s never delivered message %d", dest, msg)
}

func pathAdjacency(names []string) map[string][]string {
	adj := make(map[string][]string, len(names))
	for i, name := range names {
		if i+1 < len(names) {
			adj[name] = append(adj[name], names[i+1])
		}
		if i > 0 {
			adj[name] = append(adj[name], names[i-1])
		}
	}
	return adj
}

func msgRef(m int64) *int64 { return &m }

// TestNodeBroadcastFlooding floods two waves from different sources across a
// 5-node path and checks every node reads both messages and forwarded.
func TestNodeBroadcastFlooding(t *testing.T) {
	h := newHarness(t, 5, rt.Config{
		Protocol:  protocol.Flooding,
		TimeScale: time.Millisecond,
	}, nil)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))

	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(7)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	if b := h.rpc("n4", rt.Body{Type: "broadcast", Message: msgRef(9)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	for _, name := range h.names {
		h.waitDelivered(name, 7)
		h.waitDelivered(name, 9)
	}
	for _, name := range h.names {
		b := h.rpc(name, rt.Body{Type: "status"})
		if len(b.Forwarded) != 2 {
			t.Errorf("%s forwarded %v, want both messages (flooding)", name, b.Forwarded)
		}
	}
}

// TestNodeGenericFR runs the pruning protocol over a denser topology: two
// triangles joined by a bridge. Everyone must deliver.
func TestNodeGenericFR(t *testing.T) {
	h := newHarness(t, 6, rt.Config{
		Protocol:  func() sim.Protocol { return protocol.Generic(protocol.TimingFirstReceipt) },
		Hops:      2,
		TimeScale: time.Millisecond,
	}, nil)
	h.initAll()
	h.topologyAll(map[string][]string{
		"n0": {"n1", "n2"},
		"n1": {"n0", "n2"},
		"n2": {"n0", "n1", "n3"},
		"n3": {"n2", "n4", "n5"},
		"n4": {"n3", "n5"},
		"n5": {"n3", "n4"},
	})
	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(1)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	for _, name := range h.names {
		h.waitDelivered(name, 1)
	}
}

// TestNodeRecovery drops the first pkt from n1 to n2 on a 3-node path,
// injecting a garble in its place (the router playing the lossy radio), and
// checks the NACK retry chain completes delivery.
func TestNodeRecovery(t *testing.T) {
	var dropped int32
	filter := func(env rt.Envelope) []rt.Envelope {
		if env.Src == "n1" && env.Dest == "n2" && env.Body.Type == "pkt" &&
			atomic.CompareAndSwapInt32(&dropped, 0, 1) {
			g := env
			g.Body = rt.Body{Type: "garble", From: env.Body.From, Attempt: env.Body.Attempt, Message: env.Body.Message}
			return []rt.Envelope{g}
		}
		return []rt.Envelope{env}
	}
	h := newHarness(t, 3, rt.Config{
		Protocol:     protocol.Flooding,
		TimeScale:    time.Millisecond,
		NACKRecovery: true,
		RetryBudget:  4,
	}, filter)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))
	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(3)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	h.waitDelivered("n2", 3)
	if atomic.LoadInt32(&dropped) == 0 {
		t.Fatal("the filter never dropped a pkt; the recovery path was not exercised")
	}
	if b := h.rpc("n2", rt.Body{Type: "status"}); b.NACKs == 0 {
		t.Errorf("n2 recovered without NACKing: %+v", b)
	}
}

// TestNodeTrafficGenerator gives both nodes of a 2-node network a traffic
// rate: each must self-inject broadcast waves from its own stream of the
// shared plan (ids tagged at or above 2^32 per source) and the waves must
// cross the link like any harness-injected broadcast.
func TestNodeTrafficGenerator(t *testing.T) {
	h := newHarness(t, 2, rt.Config{
		Protocol:       protocol.Flooding,
		TimeScale:      time.Millisecond,
		Seed:           5,
		Rate:           3,
		TrafficHorizon: 10,
	}, nil)
	h.initAll()
	h.topologyAll(pathAdjacency(h.names))

	// Rate 3 over 10 units: each node injects ~30 waves (zero arrivals has
	// probability e^-30). Wait until n1 has delivered a wave originated by
	// n0 and vice versa.
	sawFrom := func(dest string, source int) bool {
		b := h.rpc(dest, rt.Body{Type: "read"})
		for _, m := range b.Messages {
			if m>>32 == int64(source+1) {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(10 * time.Second)
	for !sawFrom("n1", 0) || !sawFrom("n0", 1) {
		if time.Now().After(deadline) {
			t.Fatal("traffic waves never crossed the link")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNodeErrors checks the maelstrom-style error replies.
func TestNodeErrors(t *testing.T) {
	h := newHarness(t, 2, rt.Config{
		Protocol:  protocol.Flooding,
		TimeScale: time.Millisecond,
	}, nil)
	h.initAll()
	if b := h.rpc("n0", rt.Body{Type: "no-such-type"}); b.Type != "error" || b.Code != 10 /* maelstrom: not supported */ {
		t.Errorf("unknown type: got %+v", b)
	}
	if b := h.rpc("n0", rt.Body{Type: "broadcast", Message: msgRef(1)}); b.Type != "error" {
		t.Errorf("broadcast before topology: got %+v", b)
	}
	h.topologyAll(pathAdjacency(h.names))
	if b := h.rpc("n0", rt.Body{Type: "broadcast"}); b.Type != "error" {
		t.Errorf("broadcast without message: got %+v", b)
	}
	if b := h.rpc("n0", rt.Body{Type: "topology", Topology: map[string][]string{"bogus": {"n0"}}}); b.Type != "error" {
		t.Errorf("bogus topology: got %+v", b)
	}
}

// TestLengthFramer round-trips frames through the binary framing.
func TestLengthFramer(t *testing.T) {
	var buf bytes.Buffer
	f := &lengthFramer{r: &buf, w: &buf}
	frames := []string{`{"a":1}`, "", `{"b":` + strings.Repeat("2", 1000) + `}`}
	for _, s := range frames {
		if err := f.WriteFrame([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := f.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(got) != want {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := f.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want EOF", err)
	}
	if err := f.WriteFrame(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestNodeUDP runs two nodes over real localhost UDP sockets, driven by a
// UDP client, and checks the wave crosses the link.
func TestNodeUDP(t *testing.T) {
	names := []string{"n0", "n1"}
	conns := make([]*net.UDPConn, 2)
	addrs := make([]*net.UDPAddr, 2)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
		addrs[i] = c.LocalAddr().(*net.UDPAddr)
	}
	var wg sync.WaitGroup
	for i := range conns {
		peers := make(map[string]*net.UDPAddr)
		for j, name := range names {
			if j != i {
				peers[name] = addrs[j]
			}
		}
		node, err := rt.NewNode(rt.Config{
			Protocol:  protocol.Flooding,
			TimeScale: time.Millisecond,
		}, newUDPWire(conns[i], peers))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Run(); err != nil {
				t.Errorf("node run: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	})

	client, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	msgID := 0
	rpc := func(dest int, b rt.Body) rt.Body {
		t.Helper()
		msgID++
		b.MsgID = msgID
		raw, err := json.Marshal(rt.Envelope{Src: "c0", Dest: names[dest], Body: b})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WriteToUDP(raw, addrs[dest]); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64<<10)
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			sz, _, err := client.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("rpc %s to %s: %v", b.Type, names[dest], err)
			}
			var env rt.Envelope
			if err := json.Unmarshal(buf[:sz], &env); err != nil {
				t.Fatal(err)
			}
			if env.Body.InReplyTo == b.MsgID {
				return env.Body
			}
		}
	}
	for i := range names {
		if b := rpc(i, rt.Body{Type: "init", NodeID: names[i], NodeIDs: names}); b.Type != "init_ok" {
			t.Fatalf("init: got %+v", b)
		}
		adj := map[string][]string{"n0": {"n1"}, "n1": {"n0"}}
		if b := rpc(i, rt.Body{Type: "topology", Topology: adj}); b.Type != "topology_ok" {
			t.Fatalf("topology: got %+v", b)
		}
	}
	if b := rpc(0, rt.Body{Type: "broadcast", Message: msgRef(5)}); b.Type != "broadcast_ok" {
		t.Fatalf("broadcast: got %+v", b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		b := rpc(1, rt.Body{Type: "read"})
		if len(b.Messages) == 1 && b.Messages[0] == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n1 never delivered: %+v", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
