package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion tags every exported JSONL line. Readers must reject lines
// whose schema they do not understand; any change to the record layouts or
// the default histogram buckets bumps this string.
const SchemaVersion = "obsv/v1"

// Record kinds.
const (
	// KindRun lines carry one RunRecord.
	KindRun = "run"
	// KindTrace lines carry one trace event.
	KindTrace = "trace"
	// KindChain lines carry one hash-chain link sealing the record lines
	// written since the previous link (see ChainLink and VerifyChain).
	// Chain records are additive: run and trace record layouts are
	// unchanged, so the schema version stays obsv/v1.
	KindChain = "chain"
)

// TraceEvent is one simulation trace event: what sim.Recorder records and
// what a KindTrace line carries.
type TraceEvent struct {
	// Kind is one of the Trace* kinds below.
	Kind string `json:"kind"`
	// At is the simulation time.
	At float64 `json:"at"`
	// Node is the acting node.
	Node int `json:"node"`
	// From is the sender for deliver events; -1 otherwise (and for the
	// source's own t=0 delivery, which no one transmitted).
	From int `json:"from"`
	// Session is the broadcast session id. Absent means session 0, which is
	// every event of a single-broadcast run; multi-session traffic runs tag
	// events with the session they belong to. Additive: the schema version
	// stays obsv/v1.
	Session int `json:"session,omitempty"`
	// Cause labels queue-drop events (one of the Cause* values); absent for
	// every other kind. Additive, like Session.
	Cause string `json:"cause,omitempty"`
	// Designated carries the designated forward set of transmit events.
	Designated []int `json:"designated,omitempty"`
}

// Trace event kinds: the per-node decisions a broadcast is judged by, plus
// the contention MAC's queue events and the start of a traffic session.
const (
	// TraceTransmit: Node forwards the packet, designating Designated.
	TraceTransmit = "transmit"
	// TraceDeliver: a copy from From reaches Node, after loss and collision
	// filtering.
	TraceDeliver = "deliver"
	// TraceNonForward: Node finalizes a non-forward decision.
	TraceNonForward = "non-forward"
	// TraceSessionStart: a broadcast session is injected at its source Node.
	TraceSessionStart = "session-start"
	// TraceEnqueue: the contention MAC admits a packet to Node's transmit
	// queue.
	TraceEnqueue = "enqueue"
	// TraceQueueDrop: the contention MAC drops a queued packet at Node, for
	// Cause.
	TraceQueueDrop = "queue-drop"
)

// Queue-drop causes.
const (
	// CauseTail: the arriving packet was dropped because the queue was full.
	CauseTail = "tail"
	// CauseDown: the queue was wiped because its node went down.
	CauseDown = "down"
)

// Record is one JSONL line: a versioned envelope around either a run record
// or a trace event, keyed by the data point and replication that produced it.
// Lines from concurrent replicates may interleave in a shared file; (Point,
// Rep) recovers the grouping.
type Record struct {
	// Schema is SchemaVersion; Write fills it in, Read rejects mismatches.
	Schema string `json:"schema"`
	// Kind selects the payload: KindRun or KindTrace.
	Kind string `json:"kind"`
	// Point identifies the data point (e.g. "fig10/FR/n=60/d=6").
	Point string `json:"point,omitempty"`
	// Rep is the replication index within the point.
	Rep int `json:"rep"`
	// Run is the payload of KindRun lines.
	Run *RunRecord `json:"run,omitempty"`
	// Event is the payload of KindTrace lines.
	Event *TraceEvent `json:"event,omitempty"`
	// Chain is the payload of KindChain lines.
	Chain *ChainLink `json:"chain,omitempty"`
}

// Writer emits Records as JSON lines, accumulating a hash chain over the
// written bytes that Seal can emit as a chain record at any point.
type Writer struct {
	w     io.Writer
	buf   bytes.Buffer
	chain *ChainHasher
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, chain: NewChainHasher()} }

// Write emits one record, stamping the schema version. Chain records cannot
// be written directly; use Seal, which computes the link.
func (w *Writer) Write(rec Record) error {
	rec.Schema = SchemaVersion
	if rec.Kind != KindRun && rec.Kind != KindTrace {
		return fmt.Errorf("obsv: unknown record kind %q", rec.Kind)
	}
	if err := w.emit(rec); err != nil {
		return err
	}
	w.chain.Add(w.buf.Bytes())
	return nil
}

// Seal emits one chain record covering every record written since the
// previous Seal (or the start of the stream), making the stream verifiable
// by VerifyChain. A sealed prefix stays valid as more records and seals
// follow.
func (w *Writer) Seal() error {
	link := w.chain.Link()
	return w.emit(Record{Schema: SchemaVersion, Kind: KindChain, Chain: &link})
}

// emit encodes and writes one record line, leaving its bytes in w.buf.
func (w *Writer) emit(rec Record) error {
	w.buf.Reset()
	enc := json.NewEncoder(&w.buf)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	_, err := w.w.Write(w.buf.Bytes())
	return err
}

// Read parses a JSONL stream of Records, rejecting unknown schema versions
// and malformed lines. Blank lines are skipped.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("obsv: line %d: %w", line, err)
		}
		if rec.Schema != SchemaVersion {
			return nil, fmt.Errorf("obsv: line %d: schema %q, want %q", line, rec.Schema, SchemaVersion)
		}
		switch rec.Kind {
		case KindRun:
			if rec.Run == nil {
				return nil, fmt.Errorf("obsv: line %d: run record without run payload", line)
			}
		case KindTrace:
			if rec.Event == nil {
				return nil, fmt.Errorf("obsv: line %d: trace record without event payload", line)
			}
		case KindChain:
			if rec.Chain == nil {
				return nil, fmt.Errorf("obsv: line %d: chain record without chain payload", line)
			}
		default:
			return nil, fmt.Errorf("obsv: line %d: unknown kind %q", line, rec.Kind)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
