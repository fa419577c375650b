package main

import (
	"context"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end at toy sizes, and the traced
// replay of all six (a traced run replays every workload, so two of them
// cover both merge orders), and checks the benchmark against its own
// contract: each run emits exactly the metrics BENCHMARK.json names for its
// trace mode (no drift either way), every metric has a unit, no check fails,
// and every span's parent resolves.
func TestSmoke(t *testing.T) {
	d, err := locate()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(d.root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(runCleanups)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json names %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "paper_fig10" && w.name != "live_fleet_journal" {
				continue
			}
			r := newRun(context.Background(), d, spec, w.name, defaultSeed, 0, toy)
			det, err := runWorkload(r, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !det.Correct || det.Failed > 0 || det.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, det.Correct, det.Attempted, det.Failed, det.Notes)
			}
			want := spec.metrics(traced)
			if len(det.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(det.Metrics), len(want))
			}
			for _, ms := range want {
				m, ok := det.Metrics[ms.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, ms.Name)
				}
				if m.Unit == "" || m.Unit != ms.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, traced, ms.Name, m.Unit, ms.Unit)
				}
			}
			for name, m := range det.Extra {
				if m.Unit == "" {
					t.Errorf("%s traced=%v: extra reading %s has no unit", w.name, traced, name)
				}
			}
			if !traced {
				continue
			}
			if len(r.tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			for _, s := range r.tr.spans {
				if s.Parent >= s.ID || s.Parent < -1 || s.End < s.Start {
					t.Fatalf("%s: span %d (%s) has parent %d, start %d, end %d", w.name, s.ID, s.Name, s.Parent, s.Start, s.End)
				}
				if s.Parent >= 0 {
					p := r.tr.spans[s.Parent]
					if s.Start < p.Start || s.End > p.End {
						t.Fatalf("%s: span %d (%s) is not inside its parent %d (%s)", w.name, s.ID, s.Name, p.ID, p.Name)
					}
				}
			}
			if len(r.tr.open) != 0 {
				t.Errorf("%s: %d spans left open", w.name, len(r.tr.open))
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}
