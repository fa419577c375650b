package main

import (
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestKilledSweepLeavesNoPartialTrace is the regression test for the trace
// export's atomicity: a sweep killed (SIGKILL, no cleanup) mid-point must not
// leave a partial .jsonl file that a later reader would mistake for a
// complete export. The test re-executes its own binary as a helper running a
// long traced sweep, kills it as soon as the first in-progress temp file
// appears, and asserts the trace directory holds no final files — only
// ".tmp-*" debris, which readers ignore.
func TestKilledSweepLeavesNoPartialTrace(t *testing.T) {
	if dir := os.Getenv("EXPERIMENTS_KILL_HELPER_DIR"); dir != "" {
		// Helper process: a paper-criterion sweep at n=100 keeps every
		// point busy for seconds, so the parent's kill lands mid-point.
		run([]string{"-fig", "10", "-sizes", "100", "-paper", "-tracedir", dir}, io.Discard)
		os.Exit(0)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestKilledSweepLeavesNoPartialTrace$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_KILL_HELPER_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Wait for the sweep to open its first in-progress temp file.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if hasEntry(t, dir, func(name string) bool { return strings.HasPrefix(name, ".tmp-") }) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("helper never opened a trace temp file")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no deferred cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".jsonl") && !strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("killed sweep left final trace file %q", e.Name())
		}
	}
}

func hasEntry(t *testing.T, dir string, match func(string) bool) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if match(e.Name()) {
			return true
		}
	}
	return false
}
