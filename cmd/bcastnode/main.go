// Command bcastnode runs one live broadcast-protocol node: the same engine
// the simulator and the in-process live cluster run (internal/runtime), as a
// standalone process speaking maelstrom-style JSON envelopes.
//
// Transport is either a duplex stream on stdin/stdout — newline-framed by
// default (maelstrom-compatible), or length-prefixed with -framing length —
// where a harness routes envelopes between processes; or UDP with -udp,
// where each envelope is one datagram sent directly to its peer.
//
// The message protocol, all wrapped as {"src","dest","body":{...}}:
//
//	init       {"type":"init","node_id":"n1","node_ids":["n0","n1",...]}
//	topology   {"type":"topology","topology":{"n0":["n1"],...}}  (full adjacency)
//	broadcast  {"type":"broadcast","message":42}   start a wave at this node (id < 2^32)
//	read       {"type":"read"}                     -> read_ok {"messages":[...]}
//	status     {"type":"status"}                   -> status_ok (delivered, forwarded, nacks)
//	pkt/nack/garble                                 inter-node protocol traffic
//
// Usage:
//
//	bcastnode -proto generic-fr -hops 2                       # stdin/stdout
//	bcastnode -udp :7001 -peers n0=10.0.0.1:7001,n2=... -recovery
//	bcastnode -udp :7001 -peers ... -rate 0.01 -horizon 400   # self-injecting traffic source
//	bcastnode -udp :0 -journal state -hello-interval 5        # crash-recoverable node
//
// With -rate every node becomes a traffic source: after the first topology it
// replays its own per-source stream of the shared deterministic traffic plan
// (internal/traffic; all nodes sources at -rate messages per time unit over
// -horizon units), starting each arrival as a broadcast wave with a message
// id at or above 2^32. Those ids are the node's own: a harness broadcast
// must use an id below 2^32, and one at or above it is refused as malformed
// (error code 12) without starting a wave, so the two never collide.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"adhocbcast/internal/protocol"
	rt "adhocbcast/internal/runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcastnode:", err)
		os.Exit(1)
	}
}

// run parses args and serves one node until its wire closes; a stdio node
// reads stdin and writes stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("bcastnode", flag.ContinueOnError)
	var (
		proto     = fs.String("proto", "generic-fr", "protocol: "+strings.Join(protocol.Names(), ", "))
		hops      = fs.Int("hops", 2, "k-hop view depth (0 = global)")
		metric    = fs.String("metric", "id", "priority metric: id, degree, ncr")
		framing   = fs.String("framing", "line", "stdio framing: line (maelstrom-compatible) or length (4-byte big-endian prefix)")
		udp       = fs.String("udp", "", "listen for UDP datagrams on this address instead of stdin/stdout")
		peers     = fs.String("peers", "", "comma-separated name=host:port peer addresses (UDP mode)")
		timescale = fs.Duration("timescale", 10*time.Millisecond, "wall-clock duration of one protocol time unit")
		recovery  = fs.Bool("recovery", false, "enable the NACK retry/backoff recovery layer")
		budget    = fs.Int("retry-budget", 3, "recovery retransmissions per (sender, receiver) link")
		seed      = fs.Int64("seed", 1, "seed of the node's private backoff streams")
		rate      = fs.Float64("rate", 0, "self-inject broadcast sessions at this per-node Poisson rate (messages per time unit); 0 disables the generator")
		horizon   = fs.Float64("horizon", 400, "traffic generation horizon in time units for -rate")
		journal   = fs.String("journal", "", "write-ahead journal directory for crash recovery; the node journals to <dir>/<name>.journal and replays it on restart")
		helloInt  = fs.Float64("hello-interval", 0, "dynamic hello beacon interval in time units; 0 disables beacons and rejoin maintenance")
		helloExp  = fs.Float64("hello-expiry", 0, "staleness expiry of a neighbor's hello clock in time units (default 3x the interval)")
		helloLoss = fs.Float64("hello-loss", 0, "independent per-beacon loss probability in [0,1), drawn from the seed's pure hash schedule")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs); err != nil {
		return err
	}
	mk, ok := protocol.ByName(*proto)
	if !ok {
		return fmt.Errorf("unknown protocol %q (valid: %s)", *proto, strings.Join(protocol.Names(), ", "))
	}
	m, ok := protocol.MetricByName(*metric)
	if !ok {
		return fmt.Errorf("unknown metric %q (valid: id, degree, ncr)", *metric)
	}
	cfg := rt.Config{
		Protocol:       mk,
		Hops:           *hops,
		Metric:         m,
		TimeScale:      *timescale,
		NACKRecovery:   *recovery,
		RetryBudget:    *budget,
		Seed:           *seed,
		Rate:           *rate,
		TrafficHorizon: *horizon,
		JournalDir:     *journal,
	}
	if *helloInt > 0 {
		// A beaconing node holds its forwarding while its view is stale.
		d := zero(cfg.DynamicHello)
		d.Interval, d.Expiry, d.LossRate, d.Seed = *helloInt, *helloExp, *helloLoss, *seed
		cfg.DynamicHello = d
	}

	var w rt.Wire
	if *udp != "" {
		addr, err := net.ResolveUDPAddr("udp", *udp)
		if err != nil {
			return fmt.Errorf("-udp %q: %w", *udp, err)
		}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		peerAddrs, err := parsePeers(*peers)
		if err != nil {
			return err
		}
		// The bound address (with the kernel-chosen port for ":0") goes to
		// stdout, which UDP mode otherwise never writes: a supervisor
		// respawning nodes on ephemeral ports reads it to rewire peers.
		fmt.Fprintf(stdout, "udp %s\n", conn.LocalAddr())
		w = newUDPWire(conn, peerAddrs)
	} else {
		var fr framer
		switch *framing {
		case "line":
			fr = newLineFramer(stdin, stdout)
		case "length":
			fr = &lengthFramer{r: stdin, w: stdout}
		default:
			return fmt.Errorf("unknown framing %q (valid: line, length)", *framing)
		}
		w = &stdioWire{fr: fr}
	}

	node, err := rt.NewNode(cfg, w)
	if err != nil {
		return err
	}
	return node.Run()
}

// zero returns a new zero value of what p points to. main configures the
// node through runtime alone and names no type of the layers beneath it.
func zero[T any](p *T) *T { return new(T) }

// validateFlags rejects invalid values and mutually-exclusive combinations up
// front, before any socket is bound or journal opened, so a misconfigured
// node dies with a descriptive error instead of limping or hanging. "Set"
// means explicitly passed on the command line (fs.Visit), so defaulted values
// never trip a combination check.
func validateFlags(fs *flag.FlagSet) error {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	get := func(name string) string { return fs.Lookup(name).Value.String() }
	getF := func(name string) float64 {
		v, _ := strconv.ParseFloat(get(name), 64)
		return v
	}

	if set["peers"] && !set["udp"] {
		return fmt.Errorf("-peers requires -udp: stdio framing has no peer addresses (the harness routes envelopes)")
	}
	if set["framing"] && set["udp"] {
		return fmt.Errorf("-framing and -udp are mutually exclusive: UDP sends one datagram per envelope and does not frame a stream")
	}
	if set["retry-budget"] && !set["recovery"] {
		return fmt.Errorf("-retry-budget requires -recovery: without the NACK recovery layer there are no retransmissions to budget")
	}
	if ts, err := time.ParseDuration(get("timescale")); err != nil || ts <= 0 {
		return fmt.Errorf("-timescale must be a positive duration, got %s", get("timescale"))
	}

	rate, hor := getF("rate"), getF("horizon")
	if !(rate >= 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("-rate must be finite and >= 0, got %v", rate)
	}
	if set["rate"] && rate > 0 && !set["horizon"] {
		return fmt.Errorf("-rate requires an explicit -horizon: a traffic source must state how long it generates")
	}
	if set["horizon"] && !set["rate"] {
		return fmt.Errorf("-horizon requires -rate: without a traffic rate there is no generation to bound")
	}
	if set["horizon"] && (!(hor > 0) || math.IsInf(hor, 0)) {
		return fmt.Errorf("-horizon must be finite and > 0, got %v", hor)
	}

	hi, he, hl := getF("hello-interval"), getF("hello-expiry"), getF("hello-loss")
	if hi < 0 || math.IsNaN(hi) {
		return fmt.Errorf("-hello-interval must be >= 0, got %v", hi)
	}
	if set["hello-expiry"] && !set["hello-interval"] {
		return fmt.Errorf("-hello-expiry requires -hello-interval: without beacons there is no staleness clock to expire")
	}
	if set["hello-expiry"] && (he <= 0 || math.IsNaN(he)) {
		return fmt.Errorf("-hello-expiry must be > 0, got %v", he)
	}
	if set["hello-loss"] && !set["hello-interval"] {
		return fmt.Errorf("-hello-loss requires -hello-interval: without beacons there is nothing to lose")
	}
	if hl < 0 || hl >= 1 || math.IsNaN(hl) {
		return fmt.Errorf("-hello-loss must be in [0,1), got %v", hl)
	}

	if dir := get("journal"); dir != "" {
		if err := validateWritableDir(dir); err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
	}
	return nil
}

// validateWritableDir creates dir if needed and proves it writable by
// creating and removing a probe file.
func validateWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

func parsePeers(s string) (map[string]*net.UDPAddr, error) {
	peers := make(map[string]*net.UDPAddr)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-peers entry %q is not name=host:port", part)
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("-peers %s: %w", name, err)
		}
		peers[name] = ua
	}
	return peers, nil
}
