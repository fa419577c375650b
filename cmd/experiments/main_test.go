package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"adhocbcast/internal/experiments"
	"adhocbcast/internal/obsv"
)

func TestRunTable1(t *testing.T) {
	if err := run([]string{"-table1"}); err != nil {
		t.Fatalf("run -table1: %v", err)
	}
}

func TestRunFigureTiny(t *testing.T) {
	if err := run([]string{"-fig", "16", "-sizes", "20"}); err != nil {
		t.Fatalf("run -fig 16: %v", err)
	}
}

// TestRunTraceDirAndProgress drives the new observability flags end to end:
// -tracedir must leave parseable obsv/v1 JSONL files behind and -progress
// must not perturb the run.
func TestRunTraceDirAndProgress(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-fig", "16", "-sizes", "20", "-tracedir", dir, "-progress", "-parallel", "2"}); err != nil {
		t.Fatalf("run with -tracedir: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("-tracedir produced no JSONL files")
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obsv.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty trace file", name)
		}
	}
}

// TestTraceDirValidatedUpFront: an unusable -tracedir must abort before any
// sweeping starts — here in front of the full -all -paper workload, which
// would take minutes if validation were deferred to the first export.
func TestTraceDirValidatedUpFront(t *testing.T) {
	start := time.Now()
	err := run([]string{"-all", "-paper", "-tracedir", "/dev/null/traces"})
	if err == nil {
		t.Fatal("run with unusable -tracedir succeeded")
	}
	if !strings.Contains(err.Error(), "-tracedir") {
		t.Errorf("error does not name the flag: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("validation took %v: not up-front", elapsed)
	}
}

func TestValidateWritableDir(t *testing.T) {
	nested := filepath.Join(t.TempDir(), "a", "b")
	if err := validateWritableDir(nested); err != nil {
		t.Fatalf("fresh nested dir: %v", err)
	}
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Fatalf("directory not created: %v %v", fi, err)
	}
	entries, err := os.ReadDir(nested)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("probe file left behind: %v", entries)
	}
}

// TestRunScaleTiny drives the -scale mode end to end on toy sizes.
func TestRunScaleTiny(t *testing.T) {
	if err := run([]string{"-scale", "-scalesizes", "40,60", "-scaledegree", "8", "-scalereps", "2"}); err != nil {
		t.Fatalf("run -scale: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // a substring of the error, when it must name the flag
	}{
		{name: "no action", args: nil},
		{name: "unknown figure", args: []string{"-fig", "99"}},
		{name: "unknown extension", args: []string{"-ext", "bogus"}},
		{name: "bad sizes", args: []string{"-fig", "10", "-sizes", "abc"}},
		{name: "bad scale sizes", args: []string{"-scale", "-scalesizes", "abc"}},
		{name: "infeasible scale degree", args: []string{"-scale", "-scalesizes", "200", "-scaledegree", "2", "-scalereps", "1"}},
		{name: "bad flag", args: []string{"-nope"}},
		{name: "unwritable tracedir", args: []string{"-fig", "16", "-sizes", "20", "-tracedir", "/dev/null/traces"}},
		{name: "negative load replicates", args: []string{"-ext", "load", "-loadrates", "0.1", "-loadreps", "-2"}, want: "-loadreps"},
		{name: "negative scale replicates", args: []string{"-scale", "-scalesizes", "200", "-scalereps", "-1"}, want: "-scalereps"},
		{name: "negative parallel figure", args: []string{"-fig", "10", "-sizes", "20", "-parallel", "-3"}, want: "-parallel"},
		{name: "negative parallel scale", args: []string{"-scale", "-scalesizes", "200", "-scalereps", "1", "-parallel", "-3"}, want: "-parallel"},
		{name: "negative parallel load", args: []string{"-ext", "load", "-loadrates", "0.1", "-loadreps", "1", "-parallel", "-3"}, want: "-parallel"},
		{name: "NaN loss rate", args: []string{"-ext", "loss", "-sizes", "20", "-lossrates", "NaN"}, want: "-lossrates"},
		{name: "infinite loss rate", args: []string{"-ext", "loss", "-sizes", "20", "-lossrates", "0.1,+Inf"}, want: "-lossrates"},
		{name: "NaN load rate", args: []string{"-ext", "load", "-loadrates", "NaN", "-loadreps", "1"}, want: "-loadrates"},
		{name: "infinite load rate", args: []string{"-ext", "load", "-loadrates", "-Inf", "-loadreps", "1"}, want: "-loadrates"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("run(%v): %v, want an error naming %s", tt.args, err, tt.want)
			}
		})
	}

	// main prefixes every error with "experiments:", so the -ext message
	// carries no prefix of its own, and it lists each value -ext accepts
	// exactly once, -ext load included.
	err := run([]string{"-ext", "bogus"})
	if err == nil {
		t.Fatal("run -ext bogus succeeded")
	}
	msg := err.Error()
	if strings.Contains(msg, "experiments:") {
		t.Errorf("-ext error %q carries its own prefix", msg)
	}
	open, end := strings.Index(msg, "(valid: "), strings.LastIndex(msg, ")")
	if open < 0 || end < open {
		t.Fatalf("-ext error %q lists no valid values", msg)
	}
	got := strings.Split(msg[open+len("(valid: "):end], ", ")
	want := append(experiments.AllExtensionIDs(), "load")
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("-ext error lists %v, want each of %v once", got, want)
	}
}
