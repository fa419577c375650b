// The architecture rule that shipped code has shipped users, checked on both
// modules (the root and bench/):
//
//   - every exported function, method, type, var and const of an internal/
//     package is referenced from a non-test file of either module, its own
//     package included;
//   - every internal/ package with non-test files has a non-test importer
//     outside itself.
//
// A method also counts as used when its name is a method of an interface
// declared in the module, or of error, fmt.Stringer, json.Marshaler,
// json.Unmarshaler or an io interface. Struct fields are out of scope: they
// are JSON schemas. The modules are loaded with `go list -json ./...` and
// type-checked from source with go/parser and go/types, the standard library
// coming from importer.Default().
//
// Run with:
//
//	go test -run Arch -v .
package adhocbcast_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// archAllowlist names what may stay without a shipped user, and why. A
// declaration is named by its package path under internal/ and its name
// (with its receiver type for a method); a package by its path alone, which
// exempts it from both rules. An entry that suppresses nothing fails the
// test, so the list can only shrink.
var archAllowlist = map[string]string{
	// PAPER.md's verification oracles: the reference the coverage kernel's
	// tests compare against.
	"core.MaxMinPath":            "PAPER.md verification oracle",
	"core.ReplacementPathExists": "PAPER.md verification oracle",
	// The obsv/v1 reader and the conservation check a trace query tool will
	// use (ROADMAP item 9(c)).
	"obsv.Read":                "reader for ROADMAP 9(c)",
	"obsv.RunRecord.Conserved": "check for ROADMAP 9(c)",
	// Section 6's strong coverage condition: PROTOCOLS.md's row, and the only
	// driver of the simulator's strong settling path in its tests.
	"protocol.GenericStrong": "Section 6 strong condition",
	// The per-node outcome of a live Cluster broadcast. Its one reader is
	// the soak harness, which since ROADMAP 16(a) is test files of a
	// directory of its own and so sees only what runtime exports.
	"runtime.Cluster.DeliveredNodes": "soak harness's per-node delivery",
}

func TestArchShippedCodeHasShippedUsers(t *testing.T) {
	start := time.Now()
	violations, err := archCheck([]string{".", "bench"}, archAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checked both modules in %v", time.Since(start).Round(time.Millisecond))
	for _, v := range violations {
		t.Error(v)
	}
}

// TestArchCheckerFindsPlantedViolations runs the checker on a fixture module
// that plants one violation of each kind, next to a used function, a used
// method, a method used only through an interface, an allowlisted unused
// function and a package of test files only (a harness, which neither rule
// reports), and wants exactly the planted ones back.
func TestArchCheckerFindsPlantedViolations(t *testing.T) {
	allow := map[string]string{
		"used.Oracle": "unused, but allowlisted",
		"used.Stale":  "planted stale entry",
	}
	got, err := archCheck([]string{"testdata/archfixture"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"orphan: package has no non-test importer",
		"used.Stale: allowlist entry suppresses nothing",
		"used.T.Unused: exported, no non-test user",
		"used.Unused: exported, no non-test user",
	}
	if !slices.Equal(got, want) {
		t.Errorf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// archPackage is the part of `go list -json` output the checker reads.
type archPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// internalKey returns the package's path under its module's internal/
// directory, or "" for a package outside it.
func (p *archPackage) internalKey() string {
	if p.Module == nil {
		return ""
	}
	rel, ok := strings.CutPrefix(p.ImportPath, p.Module.Path+"/internal/")
	if !ok {
		return ""
	}
	return rel
}

// archDecl is one exported declaration under check: its reported name and
// the span of its own declaration, inside which a reference does not count.
type archDecl struct {
	name     string
	pos, end token.Pos
}

// archChecker type-checks the non-test files of the loaded packages from
// source, each once, in import order.
type archChecker struct {
	fset    *token.FileSet
	pkgs    map[string]*archPackage
	files   map[string][]*ast.File
	checked map[string]*types.Package
	std     types.Importer
	info    *types.Info
}

// archCheck loads the modules rooted at dirs and returns the sorted
// violations of both rules, allowlist entries that suppress nothing included.
func archCheck(dirs []string, allow map[string]string) ([]string, error) {
	c := &archChecker{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*archPackage{},
		files:   map[string][]*ast.File{},
		checked: map[string]*types.Package{},
		std:     importer.Default(),
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	var order []string
	for _, dir := range dirs {
		pkgs, err := goListPackages(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if len(p.GoFiles) > 0 {
				c.pkgs[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}
	for _, path := range order {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}

	needed := map[string]bool{} // allowlist entries that suppressed something
	var violations []string
	report := func(name, what string) {
		if _, ok := allow[name]; ok {
			needed[name] = true
			return
		}
		violations = append(violations, name+": "+what)
	}

	// The package rule.
	for _, path := range order {
		key := c.pkgs[path].internalKey()
		if key == "" {
			continue
		}
		imported := false
		for _, q := range c.pkgs {
			if q.ImportPath != path && slices.Contains(q.Imports, path) {
				imported = true
				break
			}
		}
		if !imported {
			report(key, "package has no non-test importer")
		}
	}

	// The declaration rule.
	ifaceMethods, err := c.interfaceMethodNames()
	if err != nil {
		return nil, err
	}
	decls := map[types.Object]archDecl{}
	for _, path := range order {
		key := c.pkgs[path].internalKey()
		if key == "" || needed[key] { // an allowlisted package is exempt
			continue
		}
		for _, f := range c.files[path] {
			c.collectDecls(f, key, ifaceMethods, decls)
		}
	}
	// Uses holds the selected identifier of every selector expression too,
	// so it sees every reference; a method of an instantiated generic type
	// maps back to its declaration through Origin.
	reached := map[types.Object]bool{}
	for id, obj := range c.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if d, ok := decls[obj]; ok && (id.Pos() < d.pos || id.Pos() >= d.end) {
			reached[obj] = true
		}
	}
	for obj, d := range decls {
		if !reached[obj] {
			report(d.name, "exported, no non-test user")
		}
	}

	for name := range allow {
		if !needed[name] {
			violations = append(violations, name+": allowlist entry suppresses nothing")
		}
	}
	slices.Sort(violations)
	return violations, nil
}

// goListPackages runs `go list -json ./...` in dir.
func goListPackages(dir string) ([]*archPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*archPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(archPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list in %s: %s", dir, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// Import type-checks a loaded package on first use; any other path is the
// standard library's.
func (c *archChecker) Import(path string) (*types.Package, error) {
	if tp, ok := c.checked[path]; ok {
		return tp, nil
	}
	p, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	c.files[path], c.checked[path] = files, tp
	return tp, nil
}

// interfaceMethodNames returns the method names of every interface the
// loaded packages declare, and of error, fmt.Stringer, json.Marshaler,
// json.Unmarshaler and the io interfaces.
func (c *archChecker) interfaceMethodNames() (map[string]bool, error) {
	names := map[string]bool{}
	add := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	for _, obj := range c.info.Defs {
		if obj != nil {
			add(obj)
		}
	}
	add(types.Universe.Lookup("error"))
	for path, only := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"io":            nil, // every interface
	} {
		tp, err := c.std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range tp.Scope().Names() {
			if only == nil || slices.Contains(only, name) {
				add(tp.Scope().Lookup(name))
			}
		}
	}
	return names, nil
}

// collectDecls adds f's exported top-level declarations and exported
// methods, skipping methods whose name an interface declares.
func (c *archChecker) collectDecls(f *ast.File, key string, ifaceMethods map[string]bool, decls map[types.Object]archDecl) {
	add := func(id *ast.Ident, name string, span ast.Node) {
		if id.IsExported() {
			decls[c.info.Defs[id]] = archDecl{key + "." + name, span.Pos(), span.End()}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				if ifaceMethods[name] {
					continue
				}
				recv := c.info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				name = recv.(*types.Named).Obj().Name() + "." + name
			}
			add(d.Name, name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name, s)
					}
				}
			}
		}
	}
}
