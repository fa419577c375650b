package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adhocbcast/internal/graph"
)

// A fleet is real bcastnode processes on loopback UDP with this program as
// their only client: one socket, one request in flight per node, every
// caller waiting for its reply (a closed loop). Loopback only — wire latency
// and loss of a real link are not measured.

// builtNode remembers the process's one build of cmd/bcastnode.
var builtNode struct {
	once sync.Once
	bin  string
	err  error
}

// nodeBinary builds cmd/bcastnode into out/bin, once per process, and returns
// its path. go build relinks only when the sources changed, so building in
// every process keeps the binary honest at little cost; the build happens
// before any timing.
func nodeBinary(r *run) (string, error) {
	builtNode.once.Do(func() {
		builtNode.bin = filepath.Join(r.dirs.out, "bin", "bcastnode")
		cmd := exec.CommandContext(r.ctx, "go", "build", "-o", builtNode.bin, "./cmd/bcastnode")
		cmd.Dir = r.dirs.root
		if out, err := cmd.CombinedOutput(); err != nil {
			builtNode.err = fmt.Errorf("building bcastnode: %v\n%s", err, out)
		}
	})
	return builtNode.bin, builtNode.err
}

// body mirrors the fields of the bcastnode message schema a client uses.
type body struct {
	Type       string              `json:"type"`
	MsgID      int                 `json:"msg_id,omitempty"`
	InReplyTo  int                 `json:"in_reply_to,omitempty"`
	NodeID     string              `json:"node_id,omitempty"`
	NodeIDs    []string            `json:"node_ids,omitempty"`
	Topology   map[string][]string `json:"topology,omitempty"`
	Message    *int64              `json:"message,omitempty"`
	Messages   []int64             `json:"messages,omitempty"`
	Peers      map[string]string   `json:"peers,omitempty"`
	FrameDrops int64               `json:"frame_drops,omitempty"`
	Code       int                 `json:"code,omitempty"`
	Text       string              `json:"text,omitempty"`
}

type envelope struct {
	Src  string `json:"src"`
	Dest string `json:"dest"`
	Body body   `json:"body"`
}

const clientName = "c0"

// Per-RPC retry: a datagram may be lost even on loopback (a full socket
// buffer), so a request is resent after rpcTimeout, rpcAttempts times.
const (
	rpcTimeout  = 250 * time.Millisecond
	rpcAttempts = 8
)

// node is one spawned bcastnode process.
type node struct {
	cmd  *exec.Cmd
	addr *net.UDPAddr
}

// fleet is a set of nodes over one topology and the client socket.
type fleet struct {
	r          *run
	bin        string
	journalDir string // "" = no journal
	names      []string
	adj        map[string][]string
	nodes      []*node
	conn       *net.UDPConn
	msgID      int
	buf        []byte
	peakRSSMB  float64
}

// fleetTimes splits a fleet's set-up.
type fleetTimes struct {
	spawn, handshake time.Duration
}

// startFleet spawns one node per vertex of g and runs the init / peers /
// topology handshake. The fleet is stopped at exit whatever happens.
func startFleet(r *run, bin string, g *graph.Graph, journalDir string) (*fleet, fleetTimes, error) {
	var ft fleetTimes
	n := g.N()
	f := &fleet{r: r, bin: bin, journalDir: journalDir, nodes: make([]*node, n), buf: make([]byte, 256<<10)}
	f.adj = make(map[string][]string, n)
	for i := 0; i < n; i++ {
		f.names = append(f.names, fmt.Sprintf("n%d", i))
	}
	for v := 0; v < n; v++ {
		g.ForEachNeighbor(v, func(u int) { f.adj[f.names[v]] = append(f.adj[f.names[v]], f.names[u]) })
	}
	atExit(f.stop)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, ft, err
	}
	f.conn = conn

	start := time.Now()
	for i := range f.nodes {
		if err := f.spawn(i); err != nil {
			f.stop()
			return nil, ft, err
		}
	}
	ft.spawn = time.Since(start)
	start = time.Now()
	if err := f.handshake(); err != nil {
		f.stop()
		return nil, ft, err
	}
	ft.handshake = time.Since(start)
	return f, ft, nil
}

// spawn starts node i and reads the address it bound off its stdout.
func (f *fleet) spawn(i int) error {
	args := []string{"-udp", "127.0.0.1:0", "-proto", "generic-fr"}
	if f.journalDir != "" {
		args = append(args, "-journal", f.journalDir)
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	f.nodes[i] = &node{cmd: cmd}
	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	go io.Copy(io.Discard, out) // a UDP node prints nothing more; keep the pipe drained until it is reaped
	if err != nil {
		return fmt.Errorf("node %s printed no address line: %w", f.names[i], err)
	}
	addrStr, ok := strings.CutPrefix(strings.TrimSpace(line), "udp ")
	if !ok {
		return fmt.Errorf("node %s printed %q, want \"udp <addr>\"", f.names[i], line)
	}
	addr, err := net.ResolveUDPAddr("udp", addrStr)
	if err != nil {
		return err
	}
	f.nodes[i].addr = addr
	return nil
}

// handshake configures every node: identity, peer addresses, topology.
func (f *fleet) handshake() error {
	peers := make(map[string]string, len(f.names))
	for i, name := range f.names {
		peers[name] = f.nodes[i].addr.String()
	}
	for i := range f.nodes {
		if _, err := f.rpc(i, body{Type: "init", NodeID: f.names[i], NodeIDs: f.names}); err != nil {
			return err
		}
	}
	for i := range f.nodes {
		if _, err := f.rpc(i, body{Type: "peers", Peers: peers}); err != nil {
			return err
		}
	}
	for i := range f.nodes {
		if _, err := f.rpc(i, body{Type: "topology", Topology: f.adj}); err != nil {
			return err
		}
	}
	return nil
}

// send writes one request to node i and returns its message id.
func (f *fleet) send(i int, b body) (int, error) {
	f.msgID++
	b.MsgID = f.msgID
	raw, err := json.Marshal(envelope{Src: clientName, Dest: f.names[i], Body: b})
	if err != nil {
		return 0, err
	}
	_, err = f.conn.WriteToUDP(raw, f.nodes[i].addr)
	return b.MsgID, err
}

// recv reads one reply, or fails at the deadline.
func (f *fleet) recv(deadline time.Time) (body, error) {
	if err := f.conn.SetReadDeadline(deadline); err != nil {
		return body{}, err
	}
	for {
		sz, _, err := f.conn.ReadFromUDP(f.buf)
		if err != nil {
			return body{}, err
		}
		var env envelope
		if err := json.Unmarshal(f.buf[:sz], &env); err != nil {
			continue // not ours
		}
		return env.Body, nil
	}
}

// rpc sends b to node i and waits for the matching reply, resending after
// each timeout. Replies to earlier requests are skipped.
func (f *fleet) rpc(i int, b body) (body, error) {
	for attempt := 0; attempt < rpcAttempts; attempt++ {
		if err := f.r.ctx.Err(); err != nil {
			return body{}, err
		}
		id, err := f.send(i, b)
		if err != nil {
			return body{}, err
		}
		deadline := time.Now().Add(rpcTimeout)
		for {
			reply, err := f.recv(deadline)
			if err != nil {
				break // timed out: resend
			}
			if reply.InReplyTo != id {
				continue
			}
			if reply.Type == "error" {
				return reply, fmt.Errorf("%s: %s: error %d: %s", f.names[i], b.Type, reply.Code, reply.Text)
			}
			return reply, nil
		}
	}
	return body{}, fmt.Errorf("%s: %s: no reply after %d attempts", f.names[i], b.Type, rpcAttempts)
}

// errWaveDeadline reports a wave some node never confirmed in time.
var errWaveDeadline = errors.New("wave not confirmed at every node before the deadline")

// wave starts broadcast msg at source and polls until every node lists it:
// one read per unconfirmed node per round, all sent before any reply is
// awaited. It returns the latency from injection to the last confirmation
// and the number of poll rounds.
func (f *fleet) wave(source int, msg int64, op int) (time.Duration, int, error) {
	id := f.r.tr.begin("wave", op, false)
	defer f.r.tr.end(id)
	start := time.Now()
	deadline := start.Add(time.Duration(f.r.sz.WaveDeadlineMS) * time.Millisecond)
	var err error
	f.r.span("rpc.broadcast", op, func() { _, err = f.rpc(source, body{Type: "broadcast", Message: &msg}) })
	if err != nil {
		return 0, 0, err
	}
	confirmed := make([]bool, len(f.nodes))
	missing := len(f.nodes)
	rounds := 0
	pending := make(map[int]int, len(f.nodes)) // request id -> node
	for missing > 0 {
		if time.Now().After(deadline) {
			return time.Since(start), rounds, errWaveDeadline
		}
		if err := f.r.ctx.Err(); err != nil {
			return 0, rounds, err
		}
		rounds++
		sid := f.r.tr.begin("poll.round", op, false)
		clear(pending)
		for i := range f.nodes {
			if confirmed[i] {
				continue
			}
			id, err := f.send(i, body{Type: "read"})
			if err != nil {
				f.r.tr.end(sid)
				return 0, rounds, err
			}
			pending[id] = i
		}
		roundEnd := time.Now().Add(rpcTimeout)
		for len(pending) > 0 {
			reply, err := f.recv(roundEnd)
			if err != nil {
				break // a lost datagram: the next round asks again
			}
			i, ok := pending[reply.InReplyTo]
			if !ok {
				continue
			}
			delete(pending, reply.InReplyTo)
			for _, m := range reply.Messages {
				if m == msg {
					confirmed[i] = true
					missing--
					break
				}
			}
		}
		f.r.tr.end(sid)
	}
	return time.Since(start), rounds, nil
}

// restart kills node i and brings it back on its journal: spawn, init,
// peers, topology. It returns the time from spawn to the topology reply,
// which is what a journal replay costs a node on restart.
func (f *fleet) restart(i int) (time.Duration, error) {
	f.reap(i)
	start := time.Now()
	if err := f.spawn(i); err != nil {
		return 0, err
	}
	if _, err := f.rpc(i, body{Type: "init", NodeID: f.names[i], NodeIDs: f.names}); err != nil {
		return 0, err
	}
	peers := make(map[string]string, len(f.names))
	for j, name := range f.names {
		peers[name] = f.nodes[j].addr.String()
	}
	if _, err := f.rpc(i, body{Type: "peers", Peers: peers}); err != nil {
		return 0, err
	}
	if _, err := f.rpc(i, body{Type: "topology", Topology: f.adj}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// reap folds node i's peak memory into the fleet's, kills it and waits for it.
func (f *fleet) reap(i int) {
	nd := f.nodes[i]
	if nd == nil {
		return
	}
	f.nodes[i] = nil
	if mb := peakRSSMB(fmt.Sprint(nd.cmd.Process.Pid)); mb > f.peakRSSMB {
		f.peakRSSMB = mb
	}
	nd.cmd.Process.Kill()
	nd.cmd.Wait()
}

// stop kills and reaps every node and closes the socket. It is safe to call
// twice — once when the epoch ends, once more from the exit hook — because
// reap forgets the node and closing a closed socket only returns an error.
func (f *fleet) stop() {
	for i := range f.nodes {
		f.reap(i)
	}
	if f.conn != nil {
		f.conn.Close()
	}
}

// stdioRTT spawns one node on stdin/stdout with the given framing ("line" or
// "length"), configures it as a one-node network, and returns the round-trip
// times of iters read requests in microseconds.
func stdioRTT(ctx context.Context, bin, framing string, iters int) ([]float64, error) {
	cmd := exec.CommandContext(ctx, bin, "-framing", framing)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	defer func() {
		in.Close()
		cmd.Process.Kill()
		cmd.Wait()
	}()
	out := bufio.NewReader(outPipe)
	msgID := 0
	call := func(b body) (body, error) {
		msgID++
		b.MsgID = msgID
		raw, err := json.Marshal(envelope{Src: clientName, Dest: "n0", Body: b})
		if err != nil {
			return body{}, err
		}
		var frame []byte
		if framing == "length" {
			frame = append([]byte{byte(len(raw) >> 24), byte(len(raw) >> 16), byte(len(raw) >> 8), byte(len(raw))}, raw...)
		} else {
			frame = append(raw, '\n')
		}
		if _, err := in.Write(frame); err != nil {
			return body{}, err
		}
		var reply []byte
		if framing == "length" {
			var hdr [4]byte
			if _, err := io.ReadFull(out, hdr[:]); err != nil {
				return body{}, err
			}
			reply = make([]byte, int(hdr[0])<<24|int(hdr[1])<<16|int(hdr[2])<<8|int(hdr[3]))
			if _, err := io.ReadFull(out, reply); err != nil {
				return body{}, err
			}
		} else if reply, err = out.ReadBytes('\n'); err != nil {
			return body{}, err
		}
		var env envelope
		if err := json.Unmarshal(reply, &env); err != nil {
			return body{}, err
		}
		if env.Body.InReplyTo != msgID || env.Body.Type == "error" {
			return env.Body, fmt.Errorf("stdio %s: unexpected reply %+v", b.Type, env.Body)
		}
		return env.Body, nil
	}
	if _, err := call(body{Type: "init", NodeID: "n0", NodeIDs: []string{"n0"}}); err != nil {
		return nil, err
	}
	if _, err := call(body{Type: "topology", Topology: map[string][]string{"n0": {}}}); err != nil {
		return nil, err
	}
	rtts := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := call(body{Type: "read"}); err != nil {
			return nil, err
		}
		rtts = append(rtts, float64(time.Since(start))/1e3)
	}
	return rtts, nil
}
