// Package chaos is the process-level crash-recovery harness: it spawns a
// fleet of real bcastnode processes (cmd/bcastnode) over localhost UDP,
// SIGKILLs and respawns them on a seed-deterministic schedule built with the
// internal/fault plan machinery, and verifies the crash-recovery claims the
// journal + dynamic-hello design makes (see docs/recovery.md):
//
//   - Strict delivery — every broadcast reaches 100% of the strict-reachable
//     nodes (never killed, connected to the source through such nodes), the
//     same obligation the in-process soak harness scores.
//   - Zero duplicate forwards — a SIGKILLed and replayed node never re-sends
//     a forward it already journaled: each journal holds at most one forward
//     record per message.
//   - Real chaos — the run proves restarts, journal replays, and completed
//     rejoins all actually happened (nonzero counters), so a green run
//     cannot be a run where the adversary never bit.
//
// The topology is a fixed backbone-and-victims shape: protected nodes form a
// ring that stays up for the whole run (so strict reachability is the whole
// backbone), and each victim hangs off two adjacent backbone nodes and is
// killed repeatedly. Victims recover missed waves through the anti-entropy
// hello beacons after rejoining.
//
// Everything the supervisor does over the wire — spawn handshakes, kills,
// respawns, peer-map pushes, verification reads — retries with bounded
// exponential backoff plus jitter, because a UDP datagram to a node that is
// mid-restart is simply gone.
package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/graph"
	rt "adhocbcast/internal/runtime"
	"adhocbcast/internal/stream"
)

// Config parameterizes one chaos run. Bin must point at a built bcastnode
// binary; the test harness builds it once per run.
type Config struct {
	// Backbone is the number of protected ring nodes (never killed).
	Backbone int
	// Victims is the number of kill-target nodes hanging off the backbone.
	Victims int
	// Seed drives the kill schedule and every derived stream.
	Seed int64
	// Broadcasts is the number of waves injected at backbone sources.
	Broadcasts int
	// Horizon is the schedule length in protocol time units: kills and
	// broadcasts are placed inside it.
	Horizon float64
	// TimeScale is the wall-clock duration of one time unit, for both the
	// spawned nodes and the supervisor's schedule clock.
	TimeScale time.Duration
	// HelloInterval is the nodes' beacon period in time units (enables the
	// rejoin protocol and anti-entropy repair).
	HelloInterval float64
	// Bin is the path of the bcastnode binary to spawn.
	Bin string
	// Dir is the scratch directory holding the per-node journals.
	Dir string
}

// DefaultConfig returns the CI chaos shape: a 6-node backbone with 4 victims.
// With the default kill cadence a 500-unit horizon yields 30+ kill/restart
// events; a 120-unit smoke horizon still yields around a dozen.
func DefaultConfig(seed int64, broadcasts int, horizon float64) Config {
	return Config{
		Backbone:      6,
		Victims:       4,
		Seed:          seed,
		Broadcasts:    broadcasts,
		Horizon:       horizon,
		TimeScale:     10 * time.Millisecond,
		HelloInterval: 5,
	}
}

// Report is the outcome of one chaos run.
type Report struct {
	// Kills and Restarts count executed SIGKILLs and completed respawns.
	Kills    int
	Restarts int
	// Boots, Replays, and Rejoins aggregate the nodes' own status counters
	// (Boots counts every process start, so Boots == N + Restarts when every
	// respawn came back).
	Boots   int
	Replays int
	Rejoins int
	// Broadcasts is the number of waves injected; StrictChecked and
	// StrictDelivered accumulate the delivery invariant over (wave,
	// strict-node) obligations.
	Broadcasts      int
	StrictChecked   int
	StrictDelivered int
	// DuplicateForwards counts journal (node, message) pairs with more than
	// one forward record — the invariant demands zero.
	DuplicateForwards int
	// Violations describes every invariant violation (empty on success).
	Violations []string
}

// Topology returns the harness graph for cfg: backbone ring 0..Backbone-1,
// victim v (ids Backbone..) attached to backbone nodes v%B and (v+1)%B. A
// ring needs a backbone of at least three nodes; FromEdges reports the
// repeated or looped link of a smaller one.
func Topology(cfg Config) (*graph.Graph, error) {
	b := cfg.Backbone
	var edges [][2]int
	for i := 0; i < b; i++ {
		edges = append(edges, [2]int{i, (i + 1) % b})
	}
	for v := 0; v < cfg.Victims; v++ {
		id := b + v
		edges = append(edges, [2]int{id, v % b}, [2]int{id, (v + 1) % b})
	}
	return graph.FromEdges(b+cfg.Victims, edges)
}

// KillPlan builds the seed-deterministic kill schedule as a fault plan: every
// victim cycles through down intervals of 10–20 units separated by 20–40
// units of uptime, between 5% and 85% of the horizon. The same (cfg.Seed,
// horizon) always yields the same plan.
func KillPlan(cfg Config) (*fault.Plan, error) {
	n := cfg.Backbone + cfg.Victims
	plan := fault.NewEmptyPlan(n)
	killEnd := 0.85 * cfg.Horizon
	for v := 0; v < cfg.Victims; v++ {
		id := cfg.Backbone + v
		rng := rand.New(rand.NewSource(stream.Seed(cfg.Seed, "chaos.kill", id)))
		t := 0.05*cfg.Horizon + rng.Float64()*20
		for t < killEnd {
			down := 10 + rng.Float64()*10
			if t+down >= killEnd {
				break
			}
			plan.AddNodeDown(id, fault.Interval{From: t, To: t + down})
			t += down + 20 + rng.Float64()*20
		}
	}
	if err := plan.Validate(n); err != nil {
		return nil, fmt.Errorf("chaos: kill plan: %w", err)
	}
	return plan, nil
}

// event is one scheduled supervisor action.
type event struct {
	at     float64 // protocol time units from run start
	kind   int     // evKill, evRestart, evBroadcast
	victim int
	msg    int64
	source int
}

const (
	evKill = iota
	evRestart
	evBroadcast
)

// proc is one spawned bcastnode process.
type proc struct {
	cmd   *exec.Cmd
	addr  *net.UDPAddr
	alive bool
}

// supervisor owns the fleet and the single UDP client socket used for every
// handshake and verification RPC.
type supervisor struct {
	cfg   Config
	g     *graph.Graph
	names []string
	procs []*proc
	conn  *net.UDPConn
	rng   *rand.Rand // jitter for retry backoff
	msgID int
	adj   map[string][]string
}

// backoff returns the bounded exponential retry delay with jitter for
// attempt (0-based): 50ms·2^attempt capped at 800ms, plus up to 25% jitter.
func (s *supervisor) backoff(attempt int) time.Duration {
	d := 50 * time.Millisecond << uint(attempt)
	if d > 800*time.Millisecond {
		d = 800 * time.Millisecond
	}
	return d + time.Duration(s.rng.Int63n(int64(d)/4+1))
}

// rpc sends b to node i and waits for the matching reply, retrying with
// bounded exponential backoff + jitter (datagrams to a dead or restarting
// node are simply lost).
func (s *supervisor) rpc(i int, b rt.Body) (rt.Body, error) {
	for attempt := 0; attempt < 7; attempt++ {
		s.msgID++
		b.MsgID = s.msgID
		raw, err := json.Marshal(rt.Envelope{Src: "c0", Dest: s.names[i], Body: b})
		if err != nil {
			return rt.Body{}, err
		}
		if _, err := s.conn.WriteToUDP(raw, s.procs[i].addr); err != nil {
			return rt.Body{}, err
		}
		deadline := time.Now().Add(s.backoff(attempt))
		buf := make([]byte, 256<<10)
		for {
			s.conn.SetReadDeadline(deadline)
			sz, _, err := s.conn.ReadFromUDP(buf)
			if err != nil {
				break // timed out: resend with a longer deadline
			}
			var env rt.Envelope
			if err := json.Unmarshal(buf[:sz], &env); err != nil {
				continue // noise
			}
			if env.Body.InReplyTo == b.MsgID {
				if env.Body.Type == "error" {
					return env.Body, fmt.Errorf("chaos: %s rpc %s: error %d: %s",
						s.names[i], b.Type, env.Body.Code, env.Body.Text)
				}
				return env.Body, nil
			}
		}
	}
	return rt.Body{}, fmt.Errorf("chaos: %s rpc %s: no reply after retries", s.names[i], b.Type)
}

// spawn starts (or restarts) node i: exec the binary, read the bound UDP
// address off stdout, and run the init handshake.
func (s *supervisor) spawn(i int) error {
	args := []string{
		"-udp", "127.0.0.1:0",
		"-proto", "flooding",
		"-recovery",
		"-journal", s.cfg.Dir,
		"-hello-interval", fmt.Sprint(s.cfg.HelloInterval),
		"-seed", fmt.Sprint(s.cfg.Seed),
		"-timescale", s.cfg.TimeScale.String(),
	}
	cmd := exec.Command(s.cfg.Bin, args...)
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("chaos: node %s printed no address line", s.names[i])
	}
	line := strings.TrimSpace(sc.Text())
	addrStr, ok := strings.CutPrefix(line, "udp ")
	if !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("chaos: node %s printed %q, want \"udp <addr>\"", s.names[i], line)
	}
	addr, err := net.ResolveUDPAddr("udp", addrStr)
	if err != nil {
		return err
	}
	go io.Copy(io.Discard, stdout) // nothing else arrives; keep the pipe drained
	s.procs[i] = &proc{cmd: cmd, addr: addr, alive: true}
	if _, err := s.rpc(i, rt.Body{Type: "init", NodeID: s.names[i], NodeIDs: s.names}); err != nil {
		return err
	}
	return nil
}

// kill SIGKILLs node i and reaps the process.
func (s *supervisor) kill(i int) error {
	p := s.procs[i]
	if p == nil || !p.alive {
		return nil
	}
	p.alive = false
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.cmd.Wait()
	return nil
}

// peerMap is the current full name -> address map of live nodes.
func (s *supervisor) peerMap() map[string]string {
	m := make(map[string]string, len(s.names))
	for i, name := range s.names {
		if s.procs[i] != nil {
			m[name] = s.procs[i].addr.String()
		}
	}
	return m
}

// pushPeers sends the current peer map to every live node.
func (s *supervisor) pushPeers() error {
	m := s.peerMap()
	for i := range s.names {
		if s.procs[i] == nil || !s.procs[i].alive {
			continue
		}
		if _, err := s.rpc(i, rt.Body{Type: "peers", Peers: m}); err != nil {
			return err
		}
	}
	return nil
}

// respawn restarts a killed victim with bounded-backoff retries and
// reintegrates it: fresh init, peer maps everywhere (the node came back on a
// new port), and a topology push that triggers journal replay and the rejoin
// protocol.
func (s *supervisor) respawn(i int) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = s.spawn(i); err == nil {
			break
		}
		time.Sleep(s.backoff(attempt))
	}
	if err != nil {
		return fmt.Errorf("chaos: respawn %s: %w", s.names[i], err)
	}
	if err := s.pushPeers(); err != nil {
		return err
	}
	if _, err := s.rpc(i, rt.Body{Type: "topology", Topology: s.adj}); err != nil {
		return err
	}
	return nil
}

// Run executes one chaos run and returns its report. Setup failures and
// supervisor RPC failures return an error; invariant violations are collected
// in Report.Violations so a failing run shows all of them.
func Run(cfg Config) (Report, error) {
	var rep Report
	if cfg.Bin == "" || cfg.Dir == "" {
		return rep, fmt.Errorf("chaos: Config.Bin and Config.Dir are required")
	}
	g, err := Topology(cfg)
	if err != nil {
		return rep, err
	}
	plan, err := KillPlan(cfg)
	if err != nil {
		return rep, err
	}
	n := g.N()
	s := &supervisor{
		cfg: cfg, g: g,
		procs: make([]*proc, n),
		rng:   rand.New(rand.NewSource(stream.Seed(cfg.Seed, "chaos.jitter"))),
	}
	for i := 0; i < n; i++ {
		s.names = append(s.names, fmt.Sprintf("n%d", i))
	}
	s.adj = make(map[string][]string, n)
	for v := 0; v < n; v++ {
		g.ForEachNeighbor(v, func(u int) {
			s.adj[s.names[v]] = append(s.adj[s.names[v]], s.names[u])
		})
	}
	s.conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return rep, err
	}
	defer s.conn.Close()
	defer func() {
		for i := range s.procs {
			s.kill(i)
		}
	}()

	// Bring the whole fleet up: spawn + init everyone, then peers, then
	// topology (nodes only start beaconing once they have a topology).
	for i := 0; i < n; i++ {
		if err := s.spawn(i); err != nil {
			return rep, err
		}
	}
	if err := s.pushPeers(); err != nil {
		return rep, err
	}
	for i := 0; i < n; i++ {
		if _, err := s.rpc(i, rt.Body{Type: "topology", Topology: s.adj}); err != nil {
			return rep, err
		}
	}

	// Build the timeline: kill/restart events from the plan, broadcasts at
	// backbone sources spread over the first 70% of the horizon.
	var events []event
	for v := 0; v < n; v++ {
		for _, iv := range plan.NodeDown[v] {
			events = append(events, event{at: iv.From, kind: evKill, victim: v})
			events = append(events, event{at: iv.To, kind: evRestart, victim: v})
		}
	}
	spacing := 0.7 * cfg.Horizon / float64(cfg.Broadcasts)
	for m := 0; m < cfg.Broadcasts; m++ {
		events = append(events, event{
			at:     float64(m) * spacing,
			kind:   evBroadcast,
			msg:    int64(m + 1),
			source: m % cfg.Backbone,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	start := time.Now()
	for _, ev := range events {
		due := start.Add(time.Duration(ev.at * float64(cfg.TimeScale)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		switch ev.kind {
		case evKill:
			if err := s.kill(ev.victim); err != nil {
				return rep, fmt.Errorf("chaos: kill %s: %w", s.names[ev.victim], err)
			}
			rep.Kills++
		case evRestart:
			if err := s.respawn(ev.victim); err != nil {
				return rep, err
			}
			rep.Restarts++
		case evBroadcast:
			m := ev.msg
			if _, err := s.rpc(ev.source, rt.Body{Type: "broadcast", Message: &m}); err != nil {
				return rep, err
			}
			rep.Broadcasts++
		}
	}

	// Settle: give in-flight waves, beacons, and anti-entropy repair a few
	// hello rounds, then verify.
	time.Sleep(time.Duration(4 * cfg.HelloInterval * float64(cfg.TimeScale)))

	// Invariant 1: every broadcast reached every strict-reachable node. The
	// backbone ring never goes down, so the strict set is the whole backbone
	// for every source. Poll each backbone node until it holds all messages
	// or the deadline expires.
	want := make(map[int64]bool, cfg.Broadcasts)
	for m := 1; m <= cfg.Broadcasts; m++ {
		want[int64(m)] = true
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < cfg.Backbone; i++ {
		for {
			b, err := s.rpc(i, rt.Body{Type: "read"})
			if err != nil {
				return rep, err
			}
			missing := len(want)
			for _, m := range b.Messages {
				if want[m] {
					missing--
				}
			}
			if missing == 0 {
				break
			}
			if time.Now().After(deadline) {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"strict node %s is missing %d of %d broadcasts", s.names[i], missing, cfg.Broadcasts))
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		b, err := s.rpc(i, rt.Body{Type: "read"})
		if err != nil {
			return rep, err
		}
		got := make(map[int64]bool, len(b.Messages))
		for _, m := range b.Messages {
			got[m] = true
		}
		for m := range want {
			rep.StrictChecked++
			if got[m] {
				rep.StrictDelivered++
			}
		}
	}

	// Node-side counters: prove the chaos actually happened.
	for i := 0; i < n; i++ {
		b, err := s.rpc(i, rt.Body{Type: "status"})
		if err != nil {
			return rep, err
		}
		rep.Boots += b.Boots
		rep.Replays += b.Replays
		rep.Rejoins += b.Rejoins
	}

	// Invariant 2: zero duplicate forwards after replay — no journal may
	// hold two forward records for one message.
	for i := 0; i < n; i++ {
		dups, err := duplicateForwards(filepath.Join(cfg.Dir, s.names[i]+".journal"))
		if err != nil {
			return rep, err
		}
		if dups > 0 {
			rep.DuplicateForwards += dups
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%s journal holds %d duplicated forward records", s.names[i], dups))
		}
	}
	return rep, nil
}

// duplicateForwards counts messages with more than one forward record in a
// journal file (each extra record counts once).
func duplicateForwards(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	seen := make(map[int64]int)
	dups := 0
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
		if rec.Op != "forward" {
			continue
		}
		seen[rec.Msg]++
		if seen[rec.Msg] > 1 {
			dups++
		}
	}
	return dups, nil
}
