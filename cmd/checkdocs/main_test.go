package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> contents under dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckCleanTree(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"pkg/doc.go": "// Package pkg is documented.\npackage pkg\n\n" +
			"// Exported is documented.\nfunc Exported() {}\n\n" +
			"// T is documented.\ntype T struct{}\n\n" +
			"// Hidden methods on unexported types need no comment.\ntype hidden struct{}\n\n" +
			"func (hidden) Len() int { return 0 }\n",
		"README.md": "See [pkg](pkg/doc.go) and [site](https://example.com) " +
			"and [anchor](#here).\n```\n[not a link](missing.md)\n```\n",
	})
	problems, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean tree reported problems:\n%s", strings.Join(problems, "\n"))
	}
}

func TestCheckFindsProblems(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"a/a.go": "package a\n\nfunc Exported() {}\n\ntype T int\n\nvar V int\n\n" +
			"// S is documented.\ntype S struct{}\n\nfunc (S) M() {}\n",
		"a/a_test.go": "package a\n\nfunc TestLooksExported() {}\n", // exempt
		"README.md":   "Broken: [gone](docs/nope.md). Escape: [up](../outside.md).\n",
	})
	problems, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package has no package doc comment",
		"exported function Exported has no doc comment",
		"exported type T has no doc comment",
		"exported var V has no doc comment",
		"exported method M has no doc comment",
		`broken relative link "docs/nope.md"`,
		`link "../outside.md" escapes the repository`,
	} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing problem %q in:\n%s", want, strings.Join(problems, "\n"))
		}
	}
	if want := 7; len(problems) != want {
		t.Errorf("got %d problems, want %d:\n%s", len(problems), want, strings.Join(problems, "\n"))
	}
}

// TestConfigCoverage exercises invariant 3 on fixture trees: a sim.Config
// field or an exported type of config.go mentioned nowhere in markdown is a
// problem, one mentioned anywhere (prose or code fence) is covered, and
// unexported fields and types are ignored.
func TestConfigCoverage(t *testing.T) {
	const config = "// Package sim is documented.\npackage sim\n\n" +
		"// Config is documented.\ntype Config struct {\n" +
		"\t// Hops is documented.\n\tHops int\n" +
		"\t// Orphan is documented in Go but not in markdown.\n\tOrphan int\n" +
		"\tinternal int\n}\n"
	for _, tc := range []struct{ name, extra, readme, want string }{
		{"undocumented field", "", "The `Hops` knob of `Config` sets the view depth.\n", "sim.Config field Orphan"},
		{"undocumented type",
			"\n// Variant is documented in Go but not in markdown.\ntype Variant struct{}\n\ntype hidden struct{}\n",
			"`Config` has the `Hops` and `Orphan` knobs.\n", "sim type Variant"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeTree(t, dir, map[string]string{
				"internal/sim/config.go": config + tc.extra,
				"README.md":              tc.readme,
			})
			problems, err := check(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
				t.Fatalf("got %v, want exactly the %q coverage problem", problems, tc.want)
			}
		})
	}
}

// TestRepositoryIsClean runs the gate over the real repository, so `go test`
// fails locally for the same reasons the CI docs gate would.
func TestRepositoryIsClean(t *testing.T) {
	problems, err := check("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("repository has documentation problems:\n%s", strings.Join(problems, "\n"))
	}
}
