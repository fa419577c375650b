// Package runtime is the live executor: it runs the same protocol
// implementations the discrete-event simulator runs (internal/sim, via the
// sim.Runtime interface), but as message-passing nodes. Node is the one live
// node: a handler around a runtime Core per broadcast message, speaking
// maelstrom-style envelopes over a Wire, with a write-ahead journal, hello
// beacons and rejoin, and traffic self-injection. cmd/bcastnode runs one Node
// per process over stdio or UDP, on the wall clock; Cluster runs n of them in
// one process over an in-memory wire, on one virtual clock: a queue that runs
// every delivery and timer in (time, seq) order, so a seed and a fault plan
// replay a broadcast event for event.
//
// A seed-deterministic nemesis layer in the Cluster's wire mirrors the
// simulator's unreliable-MAC and fault models: per-copy drop and duplication,
// per-copy delivery jitter (which reorders copies), and an internal/fault plan
// for link partitions and node churn/crash evaluated against the run clock.
// The NACK retry/backoff recovery layer runs live, extended with
// receiver-driven re-requests so a recovery chain survives a sender that is
// temporarily down — the property the soak harness (internal/runtime/soak)
// verifies under partition + churn.
//
// Time is measured in the simulator's units: all Config delays
// (TransmitDelay, BackoffWindow, fault-plan intervals, ...) are in units, so
// one configuration describes both a simulated and a live run; a bcastnode
// process maps a unit to Config.TimeScale of wall time.
package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"adhocbcast/internal/hello"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/sim"
	"adhocbcast/internal/view"
)

// Nemesis configures the adversarial message layer of a Cluster. The zero
// value is a perfectly reliable network (modulo the fault plan passed to
// Broadcast).
type Nemesis struct {
	// DropRate is an independent per-copy drop probability in [0, 1),
	// mirroring sim.Config.LossRate. With NACK recovery enabled a dropped
	// copy leaves a detectable garble at the receiver (it overheard a frame
	// it could not decode), exactly as in the simulator.
	DropRate float64
	// DupRate is an independent per-copy duplication probability in [0, 1):
	// the receiver gets a second copy after an extra delay, exercising
	// duplicate suppression under reordering.
	DupRate float64
	// JitterFrac adds a uniform extra delivery delay in
	// [0, JitterFrac*TransmitDelay) per copy. Unlike the simulator's
	// TxJitter (one draw per transmission), live jitter is per copy, so
	// copies of one transmission arrive at different times and may reorder
	// against other traffic.
	JitterFrac float64
	// DetectablePartitions makes a copy dropped by a down *link* leave a
	// detectable garble at the receiver (carrier sensed, frame undecodable),
	// so the NACK recovery layer can repair partition-era losses once the
	// link heals. The simulator treats link drops as silent; the soak
	// harness's 100%-delivery invariant needs them detectable. Copies
	// dropped because the *receiver* is down are always silent (its radio
	// is off).
	DetectablePartitions bool
}

func (nm Nemesis) validate() error {
	if nm.DropRate < 0 || nm.DropRate >= 1 || math.IsNaN(nm.DropRate) {
		return fmt.Errorf("runtime: Nemesis.DropRate %v outside [0,1)", nm.DropRate)
	}
	if nm.DupRate < 0 || nm.DupRate >= 1 || math.IsNaN(nm.DupRate) {
		return fmt.Errorf("runtime: Nemesis.DupRate %v outside [0,1)", nm.DupRate)
	}
	if nm.JitterFrac < 0 || math.IsNaN(nm.JitterFrac) || math.IsInf(nm.JitterFrac, 0) {
		return fmt.Errorf("runtime: Nemesis.JitterFrac %v is negative or not finite", nm.JitterFrac)
	}
	return nil
}

// Config holds the parameters of a live node, and of every node of a
// Cluster. The protocol, timing and recovery parameters deliberately mirror
// sim.Config — they take its defaults and pass its validation — so one
// experiment description drives both executors.
type Config struct {
	// Protocol builds one protocol instance. A node calls it once per
	// broadcast message — each node runs its own instance, which the
	// sim.Runtime locality contract makes equivalent to the simulator
	// driving a single instance for the whole network.
	Protocol func() sim.Protocol
	// Hops is the k of the k-hop local views; 0 or negative selects the
	// global view.
	Hops int
	// Metric selects the priority metric (default view.MetricID).
	Metric view.Metric
	// PiggybackDepth is h, the packet trail depth. Default 2; negative
	// disables piggybacking.
	PiggybackDepth int
	// BackoffWindow is the maximum backoff delay in time units (default 8).
	BackoffWindow float64
	// TransmitDelay is the nominal propagation delay of a copy in time
	// units (default 1).
	TransmitDelay float64
	// TimeScale is the wall-clock duration of one time unit of a bcastnode
	// process (default 2ms). Smaller scales run faster but leave less slack
	// for scheduling noise relative to protocol timing. A Cluster runs in
	// virtual time and ignores it.
	TimeScale time.Duration
	// Seed drives every random stream: per-directed-link nemesis draws of
	// a Cluster, per-node per-message backoff draws, the traffic plan of
	// Rate, and (as DynamicHello.Seed, on bcastnode) the beacon loss
	// schedule. A Cluster given the same seed, topology and fault plans
	// repeats its broadcasts event for event.
	Seed int64
	// Nemesis is the adversarial message layer of a Cluster's wire. A
	// bcastnode process has none of its own (its harness is the nemesis);
	// JitterFrac still stretches its recovery re-request wait.
	Nemesis Nemesis

	// NACKRecovery enables the live recovery layer: receivers NACK
	// detectable drops, senders retransmit unicast with the simulator's
	// bounded exponential backoff, and — beyond the simulator — receivers
	// re-request when an expected retransmission never arrives, so a chain
	// survives a temporarily down sender. RetryBudget, NACKDelay and
	// RetryBackoff have the simulator's defaults (3, 0.5, 1).
	NACKRecovery bool
	// RetryBudget caps recovery retransmissions per (sender, receiver) link.
	RetryBudget int
	// NACKDelay is the detection-plus-control-transit delay of a request.
	NACKDelay float64
	// RetryBackoff is the base retry delay of the exponential backoff.
	RetryBackoff float64

	// DynamicHello, when non-nil, enables periodic hello maintenance, and a
	// node whose view is provably stale holds its forwarding (refuses
	// non-forward status) until the view is fresh again — the live face of
	// sim.BeaconedViews. A bcastnode process beacons every Interval over its
	// wire, drops incoming beacons by the pure (Seed, recv, from, round)
	// hash of hello.Dynamic.Received, and judges staleness from what it
	// heard; a Cluster node takes the simulator's pure-hash verdict
	// (hello.Dynamic.ViewStale) against the run clock, because a Cluster
	// wave must quiesce. The loss schedule being a pure function is what
	// makes a seed-matched simulator run agree on every stale hold.
	DynamicHello *hello.Dynamic

	// Deadline aborts a Cluster broadcast whose next event lies past this
	// many time units (default 1000), so a protocol that keeps scheduling
	// work cannot run forever.
	Deadline float64
	// Metrics, when non-nil, is populated with each Cluster broadcast's
	// counters and histograms exactly like sim.Config.Metrics (Reset at
	// broadcast start).
	Metrics *obsv.RunRecord

	// Rate, when positive, turns a bcastnode process into a traffic source:
	// once the first topology is configured it replays its own per-source
	// stream of the shared deterministic traffic plan (internal/traffic,
	// every node a source at Rate messages per time unit over
	// TrafficHorizon units), starting each arrival as a fresh broadcast
	// wave. All nodes run the same (Seed, N)-keyed plan, so a deployment's
	// offered load is reproducible without any coordination traffic.
	Rate float64
	// TrafficHorizon is the generation horizon in time units for Rate
	// (default 400).
	TrafficHorizon float64
	// JournalDir, when non-empty, enables a bcastnode process's write-ahead
	// journal: the node appends its durable broadcast state (seen messages,
	// forwards, pending NACK obligations) to <JournalDir>/<node-name>.journal
	// and replays it after a restart, so a crashed-and-respawned node
	// neither re-forwards nor double-counts. See docs/recovery.md.
	JournalDir string
}

// normalize validates c and fills its defaults. The protocol, timing and
// recovery fields go through the simulator's own table (sim.Config.Normalize),
// so a value one executor rejects the other rejects too.
func (c Config) normalize() (Config, error) {
	if c.Protocol == nil {
		return c, fmt.Errorf("runtime: Config.Protocol factory is nil")
	}
	if err := c.Nemesis.validate(); err != nil {
		return c, err
	}
	if math.IsNaN(c.Deadline) || math.IsInf(c.Deadline, 0) {
		return c, fmt.Errorf("runtime: Deadline %v is not finite", c.Deadline)
	}
	s, err := sim.Config{
		Metric:         c.Metric,
		PiggybackDepth: c.PiggybackDepth,
		BackoffWindow:  c.BackoffWindow,
		TransmitDelay:  c.TransmitDelay,
		RetryBudget:    c.RetryBudget,
		NACKDelay:      c.NACKDelay,
		RetryBackoff:   c.RetryBackoff,
	}.Normalize(0)
	if err != nil {
		return c, fmt.Errorf("runtime: %w", err)
	}
	c.Metric, c.PiggybackDepth = s.Metric, s.PiggybackDepth
	c.BackoffWindow, c.TransmitDelay = s.BackoffWindow, s.TransmitDelay
	c.RetryBudget, c.NACKDelay, c.RetryBackoff = s.RetryBudget, s.NACKDelay, s.RetryBackoff
	if c.DynamicHello != nil { // through hello.Dynamic's own table, as sim.BeaconedViews
		d := c.DynamicHello.WithDefaults()
		if err := d.Validate(); err != nil {
			return c, fmt.Errorf("runtime: invalid DynamicHello: %w", err)
		}
		c.DynamicHello = &d
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 2 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 1000
	}
	return c, nil
}

// StreamSeed derives an independent RNG stream seed from a base seed, a
// purpose label, and integer qualifiers (message ids, node ids): the live
// analog of the simulator's per-purpose stream derivation, used for node
// backoff streams, the Cluster's link nemesis and the chaos harness's kill
// schedule.
func StreamSeed(seed int64, purpose string, parts ...int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(purpose))
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return int64(h.Sum64() & (1<<62 - 1))
}
