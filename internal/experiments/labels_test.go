package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocbcast/internal/stats"
)

// TestDefaultPointLabelsPinned pins the label of every data point the default
// configuration produces — figures, extensions, the scale sweep and the load
// sweep — against testdata/point_labels.golden. Labels are grid cache keys
// and trace file names, so a changed label silently re-keys .gridcache and
// renames trace exports; this test makes that a deliberate act (regenerate
// the golden with UPDATE_GOLDEN=1). Nothing is computed: Runner hooks record
// the label and substitute a zero result.
func TestDefaultPointLabelsPinned(t *testing.T) {
	var labels []string
	rc := RunConfig{
		Parallelism: 1, // one worker: labels arrive in figure order
		Runner: func(point string, _ func() (stats.Summary, error)) (stats.Summary, error) {
			labels = append(labels, point)
			return stats.Summary{}, nil
		},
	}
	for _, d := range registry {
		if _, err := d.run(rc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Scale(ScaleConfig{Runner: func(point string, _ func() ([]ScaleRow, error)) ([]ScaleRow, error) {
		labels = append(labels, point)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(LoadConfig{Runner: func(point string, _ func() ([]LoadRow, error)) ([]LoadRow, error) {
		labels = append(labels, point)
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}

	got := strings.Join(labels, "\n") + "\n"
	golden := filepath.Join("testdata", "point_labels.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("point labels differ from %s at line %d: got %q", golden, i+1, line)
		}
	}
	t.Fatalf("point labels stop short of %s: %d of %d lines", golden, len(labels), len(wantLines)-1)
}
