package sim

import (
	"fmt"
	"sort"
	"strings"

	"adhocbcast/internal/obsv"
)

// Recorder collects every simulation event of a run in occurrence order, in
// its obsv/v1 export form; attach one through Config.Observer to trace or
// visualize a broadcast. Traffic runs tag events with their session and
// record each session's start; contention-MAC runs record the MAC queue
// events too. A single run is session 0, started inline: its events carry
// session 0 and no session start.
type Recorder struct {
	events []obsv.TraceEvent
}

// trace records one event at the current simulation time on the configured
// Recorder. Nothing is built, and designated is not copied, when no Recorder
// is attached. from is the sender of a deliver event (-1 otherwise and for
// the source's own t=0 delivery), cause labels a queue drop, and designated
// is the designated forward set of a transmit event.
func (net *Network) trace(kind string, sid int32, v, from int, cause string, designated []int) {
	r := net.Cfg.Observer
	if r == nil {
		return
	}
	r.events = append(r.events, obsv.TraceEvent{
		Kind:       kind,
		At:         net.now,
		Node:       v,
		From:       from,
		Session:    int(sid),
		Cause:      cause,
		Designated: append([]int(nil), designated...),
	})
}

// Events returns the recorded events in occurrence order. The events are
// fully cloned — mutating a returned event's Designated slice never aliases
// the recorder's internal state or earlier returns.
func (r *Recorder) Events() []obsv.TraceEvent {
	out := make([]obsv.TraceEvent, len(r.events))
	for i, e := range r.events {
		out[i] = cloneEvent(e)
	}
	return out
}

// Transmissions returns the transmit events only, fully cloned like Events.
func (r *Recorder) Transmissions() []obsv.TraceEvent {
	var out []obsv.TraceEvent
	for _, e := range r.events {
		if e.Kind == obsv.TraceTransmit {
			out = append(out, cloneEvent(e))
		}
	}
	return out
}

// cloneEvent deep-copies one trace event.
func cloneEvent(e obsv.TraceEvent) obsv.TraceEvent {
	if e.Designated != nil {
		e.Designated = append([]int(nil), e.Designated...)
	}
	return e
}

// DeliveryTimes returns the first delivery time per node id. The source is
// reported at t=0: it holds the packet from the start, so its entry never
// depends on a neighbor's retransmission echoing back.
func (r *Recorder) DeliveryTimes() map[int]float64 {
	out := make(map[int]float64)
	for _, e := range r.events {
		if e.Kind != obsv.TraceDeliver {
			continue
		}
		if _, ok := out[e.Node]; !ok {
			out[e.Node] = e.At
		}
	}
	return out
}

// Format renders the trace as one line per event, for logs and debugging.
// Events of session 0 render exactly as single-run traces always did; higher
// sessions carry an [s=N] tag.
func (r *Recorder) Format() string {
	var b strings.Builder
	for _, e := range r.events {
		tag := ""
		if e.Session > 0 {
			tag = fmt.Sprintf(" [s=%d]", e.Session)
		}
		switch e.Kind {
		case obsv.TraceTransmit:
			if len(e.Designated) > 0 {
				fmt.Fprintf(&b, "t=%6.2f  node %3d transmits, designating %v%s\n", e.At, e.Node, e.Designated, tag)
			} else {
				fmt.Fprintf(&b, "t=%6.2f  node %3d transmits%s\n", e.At, e.Node, tag)
			}
		case obsv.TraceDeliver:
			if e.From < 0 {
				fmt.Fprintf(&b, "t=%6.2f  node %3d holds the packet (source)%s\n", e.At, e.Node, tag)
			} else {
				fmt.Fprintf(&b, "t=%6.2f  node %3d receives from %d%s\n", e.At, e.Node, e.From, tag)
			}
		case obsv.TraceNonForward:
			fmt.Fprintf(&b, "t=%6.2f  node %3d takes non-forward status%s\n", e.At, e.Node, tag)
		case obsv.TraceSessionStart:
			fmt.Fprintf(&b, "t=%6.2f  node %3d starts broadcast session %d\n", e.At, e.Node, e.Session)
		case obsv.TraceEnqueue:
			fmt.Fprintf(&b, "t=%6.2f  node %3d enqueues a transmission%s\n", e.At, e.Node, tag)
		case obsv.TraceQueueDrop:
			fmt.Fprintf(&b, "t=%6.2f  node %3d drops a queued transmission (%s)%s\n", e.At, e.Node, e.Cause, tag)
		}
	}
	return b.String()
}

// MeanDeliveryLatency returns the average first-delivery time across the
// nodes that received the packet.
func (r *Recorder) MeanDeliveryLatency() float64 {
	times := r.DeliveryTimes()
	if len(times) == 0 {
		return 0
	}
	ids := make([]int, 0, len(times))
	for id := range times {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	total := 0.0
	for _, id := range ids {
		total += times[id]
	}
	return total / float64(len(times))
}
