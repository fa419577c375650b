package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"adhocbcast/internal/obsv"
	"adhocbcast/internal/sim"
)

// The write-ahead journal makes one node's broadcast state survive process
// death (see docs/recovery.md for the normative format). It is a JSONL
// append-only file of journalOp records, durable via obsv.AppendFile: the
// node batches one fsync per handled envelope, except that a "forward"
// record is always synced before the forwarded datagrams leave the socket —
// the write-ahead rule that makes "zero duplicate forwards after replay" an
// invariant rather than a race. A reader tolerates a torn final line (the
// only damage a crash mid-append can cause).

// journalOp is one journal record. Op selects the kind; the other fields are
// per-kind and omitted when unused.
type journalOp struct {
	// Op is "boot", "source", "deliver", "forward", "nack", or "nack_done".
	Op string `json:"op"`
	// Msg identifies the broadcast wave (all ops except boot).
	Msg int64 `json:"msg,omitempty"`
	// From is the peer node: the copy's sender (deliver) or the NACKing
	// receiver (nack, nack_done).
	From int `json:"from,omitempty"`
	// Attempt is the recovery attempt of a nack / nack_done pair.
	Attempt int `json:"attempt,omitempty"`
	// Packet carries the delivered copy (deliver) or the transmitted packet
	// (forward), so replay can restore retransmission state.
	Packet *sim.Packet `json:"packet,omitempty"`
}

// journal is the node's open write-ahead log.
type journal struct {
	af    *obsv.AppendFile
	dirty bool
}

// openJournal reads the ops a previous life left in path (tolerating a torn
// final line), then opens the file for appending and records a boot op. It
// returns the prior ops for replay and the total boot count including this
// one. It fails only on I/O.
func openJournal(path string) (*journal, []journalOp, int, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, 0, err
	}
	var ops []journalOp
	boots, good := 0, 0 // good: the end of the last well-formed record
	for {
		i := bytes.IndexByte(data[good:], '\n')
		var op journalOp
		if i < 0 || json.Unmarshal(data[good:good+i], &op) != nil {
			break
		}
		good += i + 1
		if op.Op == "boot" {
			boots++
		} else {
			ops = append(ops, op)
		}
	}
	if good < len(data) {
		// A torn final record is the expected crash artifact; its write
		// never became durable, so dropping it is safe. Cutting it off
		// starts this life's records on a line of their own, where the next
		// replay can read them.
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, nil, 0, err
		}
	}
	af, err := obsv.OpenAppend(path)
	if err != nil {
		return nil, nil, 0, err
	}
	j := &journal{af: af}
	boots++
	if err := j.append(journalOp{Op: "boot"}); err != nil {
		af.Close()
		return nil, nil, 0, err
	}
	if err := j.sync(); err != nil {
		af.Close()
		return nil, nil, 0, err
	}
	return j, ops, boots, nil
}

// append buffers one record for the next sync.
func (j *journal) append(op journalOp) error {
	b, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.af.Write(append(b, '\n')); err != nil {
		return err
	}
	j.dirty = true
	return nil
}

// sync makes everything appended so far durable.
func (j *journal) sync() error {
	if !j.dirty {
		return nil
	}
	j.dirty = false
	return j.af.Sync()
}
