package hello

import (
	"fmt"
	"math"
	"slices"

	"adhocbcast/internal/graph"
	"adhocbcast/internal/stream"
)

// This file is the view-maintenance side of the hello layer: after the
// initial exchange builds the k-hop views, nodes keep beaconing periodically
// and each node runs a per-neighbor staleness clock — if a view-neighbor's
// beacon has not been heard for longer than the expiry, the node's view is
// provably stale and the engine's conservative fallback holds its forwarding
// until the view is fresh again. The beacon outcome is a pure function of
// (Seed, receiver, sender, round), so the simulator, the in-process live
// cluster, and a fleet of real bcastnode processes all agree on exactly which
// beacons a seed-matched run loses, and their stale-hold decisions match.

// Dynamic parameterizes periodic hello maintenance: beacon cadence, the
// per-neighbor expiry that defines staleness, and the loss model applied to
// each beacon independently per receiver.
type Dynamic struct {
	// Interval is the beacon period in protocol time units (default 5).
	Interval float64
	// Expiry is the staleness threshold in time units: a view-neighbor not
	// heard from for longer than Expiry makes the node's view stale (default
	// 3×Interval, so two consecutive losses are tolerated).
	Expiry float64
	// LossRate is the independent probability in [0, 1) that one beacon is
	// lost on its way to one particular receiver.
	LossRate float64
	// Seed drives the beacon loss decisions (pure hash; see Received).
	Seed int64
}

// WithDefaults fills zero fields with the documented defaults.
func (d Dynamic) WithDefaults() Dynamic {
	if d.Interval <= 0 {
		d.Interval = 5
	}
	if d.Expiry <= 0 {
		d.Expiry = 3 * d.Interval
	}
	return d
}

// Validate rejects parameters that would silently misbehave, infinite ones
// included (a live beacon timer would fire at once and re-arm forever).
func (d Dynamic) Validate() error {
	if d.Interval < 0 || math.IsNaN(d.Interval) || math.IsInf(d.Interval, 0) {
		return fmt.Errorf("hello: beacon Interval %v is negative or not finite", d.Interval)
	}
	if d.Expiry < 0 || math.IsNaN(d.Expiry) || math.IsInf(d.Expiry, 0) {
		return fmt.Errorf("hello: beacon Expiry %v is negative or not finite", d.Expiry)
	}
	if d.LossRate < 0 || d.LossRate >= 1 || math.IsNaN(d.LossRate) {
		return fmt.Errorf("hello: beacon LossRate %v outside [0,1)", d.LossRate)
	}
	return nil
}

// Received reports whether receiver recv hears sender from's beacon of the
// given round. Round 0 is the initial exchange and is always received (the
// startup views are built by Exchange, whose loss is modeled separately);
// later rounds are lost independently with probability LossRate, decided by
// a pure hash of (Seed, recv, from, round). Being a pure function — no RNG
// state, no ordering dependence — it is safe to consult concurrently and
// yields identical loss patterns in the simulator and in live processes.
func (d Dynamic) Received(recv, from, round int) bool {
	if round <= 0 || d.LossRate <= 0 {
		return true
	}
	// 53 bits of hash to a uniform float in [0, 1).
	u := float64(stream.Hash(d.Seed, "hello/beacon", recv, from, round)>>11) / (1 << 53)
	return u >= d.LossRate
}

// Rounds returns the number of completed beacon rounds at time t: round r is
// broadcast at r×Interval, so rounds 1..floor(t/Interval) have fired (round 0
// is the initial exchange at t=0).
func (d Dynamic) Rounds(t float64) int {
	if d.Interval <= 0 || t < 0 {
		return 0
	}
	return int(t / d.Interval)
}

// LastHeard returns the time of the latest beacon from sender from that
// receiver recv has received by time t (0 when only the initial exchange
// got through). O(1) without loss, when every beacon lands.
func (d Dynamic) LastHeard(recv, from int, t float64) float64 {
	if d.LossRate <= 0 && d.Interval > 0 && t >= 0 {
		return math.Floor(t/d.Interval) * d.Interval
	}
	for r := d.Rounds(t); r > 0; r-- {
		if d.Received(recv, from, r) {
			return float64(r) * d.Interval
		}
	}
	return 0
}

// LinkStale reports whether, at time t, receiver recv has gone longer than
// Expiry without hearing from sender from.
func (d Dynamic) LinkStale(recv, from int, t float64) bool {
	return t-d.LastHeard(recv, from, t) > d.Expiry
}

// EverStale reports whether the link from→recv was stale at any time in
// [0, t]: some gap between consecutive received beacons (or between the last
// received beacon and t) exceeded Expiry. This is the run-level counter shape
// — staleness during the run, not just at its end. O(1) without loss.
func (d Dynamic) EverStale(recv, from int, t float64) bool {
	if t < 0 {
		return false
	}
	if d.LossRate <= 0 {
		last := d.LastHeard(recv, from, t)
		return (last > 0 && d.Interval > d.Expiry) || t-last > d.Expiry
	}
	last := 0.0
	for r := 1; r <= d.Rounds(t); r++ {
		at := float64(r) * d.Interval
		if !d.Received(recv, from, r) {
			continue
		}
		if at-last > d.Expiry {
			return true
		}
		last = at
	}
	return t-last > d.Expiry
}

// ViewStale reports whether node v's view is stale at time t: some neighbor
// of v in its view topology g is past its beacon expiry (LinkStale). Pure, so
// every executor reaches the same verdict, from any goroutine.
func (d Dynamic) ViewStale(g *graph.Graph, v int, t float64) bool {
	for _, u := range g.Adj(v) {
		if d.LinkStale(v, u, t) {
			return true
		}
	}
	return false
}

// StaleViewHolds counts the nodes of g whose view was stale at some time in
// [0, t]: the run records' StaleViewHolds, which the simulator and the live
// Cluster both fill through it, so seed-matched runs report the same value.
func (d Dynamic) StaleViewHolds(g *graph.Graph, t float64) int {
	holds := 0
	for v := 0; v < g.N(); v++ {
		if slices.ContainsFunc(g.Adj(v), func(u int) bool { return d.EverStale(v, u, t) }) {
			holds++
		}
	}
	return holds
}
