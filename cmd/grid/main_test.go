package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gridArgs builds the common flag set for a run against the smoke spec.
func gridArgs(cache, out string, extra ...string) []string {
	args := []string{"-spec", filepath.Join("testdata", "smoke.json"), "-cache", cache, "-out", out}
	return append(args, extra...)
}

func TestGridColdWarmVerify(t *testing.T) {
	cache, out := t.TempDir(), t.TempDir()

	// Cold run computes every point.
	var cold bytes.Buffer
	if err := run(gridArgs(cache, out), &cold); err != nil {
		t.Fatalf("cold run: %v\n%s", err, cold.String())
	}
	if !strings.Contains(cold.String(), "0 cached") {
		t.Fatalf("cold run summary: %q", cold.String())
	}
	table1, err := os.ReadFile(filepath.Join(out, "smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}

	// Warm rerun into a fresh output directory must be all cache hits
	// (-require-cached proves it) and byte-identical.
	out2 := t.TempDir()
	var warm bytes.Buffer
	if err := run(gridArgs(cache, out2, "-require-cached"), &warm); err != nil {
		t.Fatalf("warm run: %v\n%s", err, warm.String())
	}
	if !strings.Contains(warm.String(), "0 computed") {
		t.Fatalf("warm run summary: %q", warm.String())
	}
	table2, err := os.ReadFile(filepath.Join(out2, "smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table1, table2) {
		t.Fatalf("warm table differs from cold table:\ncold: %q\nwarm: %q", table1, table2)
	}

	// -verify passes on the intact store (against the second output dir,
	// whose manifest was written last).
	var verify bytes.Buffer
	if err := run(gridArgs(cache, out2, "-verify"), &verify); err != nil {
		t.Fatalf("verify: %v\n%s", err, verify.String())
	}
	if !strings.Contains(verify.String(), "verified") {
		t.Fatalf("verify output: %q", verify.String())
	}

	// A flipped byte in any cached point file fails -verify.
	points, err := filepath.Glob(filepath.Join(cache, "points", "*.jsonl"))
	if err != nil || len(points) == 0 {
		t.Fatalf("point files: %v (%d)", err, len(points))
	}
	data, err := os.ReadFile(points[0])
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	mut[len(mut)/2] ^= 0x01
	if err := os.WriteFile(points[0], mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(gridArgs(cache, out2, "-verify"), &bytes.Buffer{}); err == nil {
		t.Fatal("tampered point file passed -verify")
	}
}

func TestGridList(t *testing.T) {
	cache, out := t.TempDir(), t.TempDir()
	var buf bytes.Buffer
	if err := run(gridArgs(cache, out, "-list"), &buf); err != nil {
		t.Fatalf("list: %v\n%s", err, buf.String())
	}
	s := buf.String()
	if !strings.Contains(s, "miss") || strings.Contains(s, "cached ") {
		t.Fatalf("cold -list output: %q", s)
	}
	// Listing computes nothing: no point files, no tables.
	if got, _ := filepath.Glob(filepath.Join(cache, "points", "*.jsonl")); len(got) != 0 {
		t.Fatalf("-list created point files: %v", got)
	}
	if _, err := os.Stat(filepath.Join(out, "smoke.txt")); err == nil {
		t.Fatal("-list wrote a table")
	}
}

func TestGridMissingNamedSpecIsError(t *testing.T) {
	if err := run([]string{"-spec", filepath.Join(t.TempDir(), "nope.json"), "-cache", t.TempDir(), "-list"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -spec file accepted")
	}
}

// TestGridErrors: every failure names its cause once. main prefixes errors
// with "grid:", so none carries that prefix itself; an unknown -table lists
// the spec's outputs instead of running nothing, and a negative -parallel
// names its flag.
func TestGridErrors(t *testing.T) {
	badSpec := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badSpec, []byte(`{"tables":[{"output":"a.txt","experiments":[{"id":"fig10","min_runs":50,"max_runs":10}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"unknown table", gridArgs(t.TempDir(), t.TempDir(), "-table", "results_bogus.txt"), "smoke.txt"},
		{"unknown table listed", gridArgs(t.TempDir(), t.TempDir(), "-list", "-table", "results_bogus.txt"), "smoke.txt"},
		{"negative parallel", gridArgs(t.TempDir(), t.TempDir(), "-parallel", "-3"), "-parallel"},
		{"bad spec", []string{"-spec", badSpec, "-cache", t.TempDir(), "-list"}, "max_runs"},
		{"cold require-cached", gridArgs(t.TempDir(), t.TempDir(), "-require-cached"), "not cached"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tt.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded:\n%s", tt.args, out.String())
			}
			if msg := err.Error(); !strings.Contains(msg, tt.want) || strings.Contains(msg, "grid:") {
				t.Fatalf("run(%v): %q, want one naming %s with no grid: prefix of its own", tt.args, msg, tt.want)
			}
		})
	}
}
