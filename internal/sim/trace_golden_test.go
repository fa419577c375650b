package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"adhocbcast/internal/fault"
	"adhocbcast/internal/geo"
	"adhocbcast/internal/obsv"
	"adhocbcast/internal/protocol"
	"adhocbcast/internal/sim"
)

// TestTraceGolden pins the recorded trace byte for byte, in both of its
// renderings: the obsv/v1 JSONL export (testdata/trace.golden.jsonl) and
// Recorder.Format (testdata/trace.golden.txt). The runs cover every event
// kind and every queue-drop cause: single broadcasts of Generic-FR and of a
// designating scheme, and a contention-MAC traffic run with a small transmit
// queue and a crash plan. UPDATE_GOLDEN=1 rewrites the files.
func TestTraceGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := geo.Generate(geo.Config{N: 16, AvgDegree: 5}, rng)
	if err != nil {
		t.Fatalf("generate network: %v", err)
	}
	plan, err := fault.NewPlan(net.G, fault.Params{CrashFraction: 0.4, CrashWindow: 2, Protect: []int{0}}, 2)
	if err != nil {
		t.Fatalf("fault plan: %v", err)
	}
	sessions := make([]sim.SessionSpec, 12)
	for i := range sessions {
		sessions[i] = sim.SessionSpec{Source: 5 * (i % 3), At: float64(i / 6)}
	}
	runs := []struct {
		point string
		run   func(rec *sim.Recorder) error
	}{
		{"single/Generic-FR", func(rec *sim.Recorder) error {
			_, err := sim.Run(net.G, 0, protocol.Generic(protocol.TimingFirstReceipt),
				sim.Config{Hops: 2, Seed: 1, Observer: rec})
			return err
		}},
		{"single/MaxDeg", func(rec *sim.Recorder) error {
			_, err := sim.Run(net.G, 0, protocol.HybridMaxDeg(), sim.Config{Hops: 2, Seed: 1, Observer: rec})
			return err
		}},
		{"traffic/tail", func(rec *sim.Recorder) error {
			_, err := sim.RunTrafficWith(nil, net.G, sessions, protocol.Flooding, sim.Config{Hops: 2, Seed: 2,
				CarrierSense: true, TxQueueCap: 2, Faults: plan, Observer: rec})
			return err
		}},
	}
	var jsonl, text bytes.Buffer
	w := obsv.NewWriter(&jsonl)
	seen := make(map[string]bool)
	for _, r := range runs {
		rec := &sim.Recorder{}
		if err := r.run(rec); err != nil {
			t.Fatalf("%s: %v", r.point, err)
		}
		events := rec.Events()
		for i := range events {
			seen[events[i].Kind] = true
			if events[i].Cause != "" {
				seen["cause="+events[i].Cause] = true
			}
			if err := w.Write(obsv.Record{Kind: obsv.KindTrace, Point: r.point, Event: &events[i]}); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&text, "# %s\n%s", r.point, rec.Format())
	}
	for _, want := range []string{obsv.TraceTransmit, obsv.TraceDeliver, obsv.TraceNonForward,
		obsv.TraceSessionStart, obsv.TraceEnqueue, obsv.TraceQueueDrop,
		"cause=" + obsv.CauseTail, "cause=" + obsv.CauseDown} {
		if !seen[want] {
			t.Errorf("golden runs record no %q event", want)
		}
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{{"trace.golden.jsonl", jsonl.Bytes()}, {"trace.golden.txt", text.Bytes()}} {
		path := filepath.Join("testdata", f.name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s drifted from the recorded trace (%d bytes, want %d)", path, len(f.got), len(want))
		}
	}
}
