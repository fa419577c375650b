package obsv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAtomicFileCommitPublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	a, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	// Before Commit the final path must not exist — a reader racing the
	// writer (or surviving a kill) sees either nothing or the whole file.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path exists before Commit (err=%v)", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello\n" {
		t.Fatalf("content = %q", data)
	}
	assertNoTempFiles(t, dir)
	// Commit is idempotent.
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	// Abort after Commit must not remove the published file.
	a.Abort()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("published file gone after post-Commit Abort: %v", err)
	}
}

func TestAtomicFileAbortLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("new\n")); err != nil {
		t.Fatal(err)
	}
	a.Abort()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old\n" {
		t.Fatalf("Abort replaced the existing file: %q", data)
	}
	assertNoTempFiles(t, dir)
	// Abort is idempotent and Commit after Abort is a no-op.
	a.Abort()
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "old\n" {
		t.Fatalf("Commit after Abort changed the file: %q", data)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.txt")
	if err := WriteFileAtomic(path, []byte("v1\n")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2\n")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2\n" {
		t.Fatalf("content = %q", data)
	}
	assertNoTempFiles(t, dir)
}

// assertNoTempFiles fails if any ".tmp-*" file is left in dir: every code
// path (commit, abort, error) must clean its temp file up.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stray temp file %q", e.Name())
		}
	}
}
