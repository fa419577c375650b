package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sessionStep is one scripted input envelope and the number of envelopes the
// node emits in answer before the script may go on.
type sessionStep struct {
	in   string
	outs int
}

// TestSessionGolden pins the wire bytes of one scripted stdio session with
// -recovery and -journal: init, topology, a broadcast, a pkt carrying a
// designated set and an extra payload, a garble answered by a NACK, a NACK
// answered by a retransmission, status and read, then a restart on the same
// journal directory that replays it. Every emitted envelope and the journal
// file must match testdata/session.golden (UPDATE_GOLDEN=1 rewrites it).
// generic-static sets no decision timers, and the script waits for each
// answer before sending the next input, so the order of the bytes is fixed;
// -retry-budget 1 ends the receiver's re-request chain after its first NACK.
func TestSessionGolden(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-proto", "generic-static", "-recovery", "-retry-budget", "1",
		"-journal", dir, "-timescale", "2ms"}
	const (
		initN1   = `{"src":"c0","dest":"n1","body":{"type":"init","msg_id":1,"node_id":"n1","node_ids":["n0","n1","n2"]}}`
		topology = `{"src":"c0","dest":"n1","body":{"type":"topology","msg_id":2,"topology":{"n0":["n1"],"n1":["n0","n2"],"n2":["n1"]}}}`
	)
	var transcript bytes.Buffer
	life := func(steps []sessionStep) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		done := make(chan error, 1)
		go func() {
			err := run(args, inR, outW)
			outW.Close()
			done <- err
		}()
		lines := make(chan string, 16)
		go func() {
			defer close(lines)
			sc := bufio.NewScanner(outR)
			sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
			for sc.Scan() {
				lines <- sc.Text()
			}
		}()
		for _, s := range steps {
			transcript.WriteString("> " + s.in + "\n")
			if _, err := io.WriteString(inW, s.in+"\n"); err != nil {
				t.Fatalf("write %s: %v", s.in, err)
			}
			for i := 0; i < s.outs; i++ {
				select {
				case line := <-lines:
					transcript.WriteString("< " + line + "\n")
				case <-time.After(10 * time.Second):
					t.Fatalf("no answer %d to %s", i+1, s.in)
				}
			}
		}
		inW.Close()
		if err := <-done; err != nil {
			t.Fatalf("run: %v", err)
		}
		for line := range lines {
			t.Errorf("unexpected envelope after the script: %s", line)
		}
	}

	life([]sessionStep{
		{initN1, 1},
		{topology, 1},
		// The source floods to both neighbours before it replies.
		{`{"src":"c0","dest":"n1","body":{"type":"broadcast","msg_id":3,"message":1}}`, 3},
		// A copy whose sender designated n1 and carried an extra payload.
		{`{"src":"n0","dest":"n1","body":{"type":"pkt","message":2,"packet":{"Source":0,"Session":0,"Trail":[{"Node":0,"Designated":[1]}],"Extra":[7,9]}}}`, 2},
		// A detectable drop: the NACK for attempt 1 leaves after NACKDelay.
		{`{"src":"n2","dest":"n1","body":{"type":"garble","message":3,"from":2}}`, 1},
		{`{"src":"n2","dest":"n1","body":{"type":"pkt","message":3,"from":2,"attempt":1,"packet":{"Source":2,"Session":0,"Trail":[{"Node":2,"Designated":null}],"Extra":null}}}`, 2},
		// n0 asks for message 1 again: the retransmission follows the backoff.
		{`{"src":"n0","dest":"n1","body":{"type":"nack","message":1,"attempt":1}}`, 1},
		{`{"src":"c0","dest":"n1","body":{"type":"status","msg_id":4}}`, 1},
		{`{"src":"c0","dest":"n1","body":{"type":"read","msg_id":5}}`, 1},
	})
	// The successor process replays the journal at its first topology.
	life([]sessionStep{
		{initN1, 1},
		{topology, 1},
		{`{"src":"c0","dest":"n1","body":{"type":"status","msg_id":3}}`, 1},
		{`{"src":"c0","dest":"n1","body":{"type":"read","msg_id":4}}`, 1},
	})
	journal, err := os.ReadFile(filepath.Join(dir, "n1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	transcript.WriteString("journal n1.journal\n")
	transcript.Write(journal)

	golden := filepath.Join("testdata", "session.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, transcript.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := transcript.String(); got != string(want) {
		t.Errorf("session bytes differ from %s:\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the first lines where want and got disagree.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("-" + wl + "\n+" + gl + "\n")
		}
	}
	return b.String()
}
