package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// smallLoad is a sweep small enough for the test suite but still heavy
// enough to exercise contention, queues, and the NACK variant.
func smallLoad() LoadConfig {
	return LoadConfig{
		N:          40,
		Degree:     6,
		Rates:      []float64{0.05, 0.2},
		Sources:    4,
		Horizon:    60,
		QueueCap:   4,
		Replicates: 2,
		Seed:       42,
	}
}

// TestLoadSweepDeterminism pins the sweep-level determinism contract: the
// whole saturation sweep — workload generation, contention MAC, NACK
// recovery, statistics folding — must produce bit-identical rows for any
// replicate parallelism. The per-run check of the same channel settings
// against the reference loop is sim.TestTrafficFastMatchesOracle's cs-load
// row.
func TestLoadSweepDeterminism(t *testing.T) {
	base := smallLoad()
	base.Parallelism = 1
	want, err := Load(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(base.Rates)*len(loadVariants()) {
		t.Fatalf("got %d rows, want %d", len(want), len(base.Rates)*len(loadVariants()))
	}
	for _, par := range []int{2, 8} {
		cfg := smallLoad()
		cfg.Parallelism = par
		got, err := Load(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d diverged from serial sweep", par)
		}
	}
}

// TestLoadEmitAndRunner checks the streaming and caching hooks: Emit sees
// every row in order, and a Runner intercepting all points with canned rows
// bypasses computation entirely.
func TestLoadEmitAndRunner(t *testing.T) {
	cfg := smallLoad()
	cfg.Parallelism = 4
	var emitted []LoadRow
	cfg.Emit = func(r LoadRow) { emitted = append(emitted, r) }
	rows, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(emitted, rows) {
		t.Errorf("Emit saw %d rows, want the %d returned rows in order", len(emitted), len(rows))
	}

	var points []string
	canned := LoadConfig{Rates: []float64{0.1}, Runner: func(point string, _ func() ([]LoadRow, error)) ([]LoadRow, error) {
		points = append(points, point)
		return []LoadRow{{Rate: 0.1, Variant: "stub", Replicates: 1}}, nil
	}}
	rows, err = Load(canned)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Variant != "stub" {
		t.Errorf("Runner rows not returned verbatim: %+v", rows)
	}
	if len(points) != 1 || points[0] != "load/rpm=100/n=100/d=6/reps=5" {
		t.Errorf("point labels = %v, want the canonical resolved label", points)
	}
}

// TestFormatLoad smoke-checks the table renderer groups rows by rate.
func TestFormatLoad(t *testing.T) {
	rows := []LoadRow{
		{Rate: 0.05, Variant: "A", Replicates: 2},
		{Rate: 0.05, Variant: "B", Replicates: 2},
		{Rate: 0.2, Variant: "A", Replicates: 2},
	}
	out := FormatLoad(rows)
	if strings.Count(out, "offered load") != 2 {
		t.Errorf("want 2 rate headers, got:\n%s", out)
	}
	if strings.Count(out, "variant") != 2 {
		t.Errorf("want a column header per rate group, got:\n%s", out)
	}
}

// TestFixedSweepsRejectDuplicateLabels: like the figure driver, the
// fixed-replication point loop refuses sweep values that share a point label
// (the second point would be served the first one's cached rows).
func TestFixedSweepsRejectDuplicateLabels(t *testing.T) {
	if _, err := Load(LoadConfig{Rates: []float64{0.0501, 0.0504}}); err == nil || !strings.Contains(err.Error(), `"load/rpm=50/n=100/d=6/reps=5"`) {
		t.Fatalf("Load with rates rounding to one label: err = %v", err)
	}
	if _, err := Scale(ScaleConfig{Sizes: []int{40, 40}, Degree: 8}); err == nil || !strings.Contains(err.Error(), `"scale/n=40/d=8/reps=5"`) {
		t.Fatalf("Scale with a repeated size: err = %v", err)
	}
}
