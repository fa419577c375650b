// Command checkdocs is the documentation gate run in CI. It enforces three
// invariants over the repository:
//
//  1. Go documentation: every package has a package doc comment and every
//     exported top-level declaration (funcs, types, and the first name of
//     each const/var group) carries a doc comment. Test files and testdata
//     are exempt.
//  2. Markdown links: every relative link or image target in the checked-in
//     *.md files resolves to an existing file or directory.
//  3. Configuration coverage: every exported field of sim.Config and every
//     exported type of internal/sim/config.go (the variants of its sum-typed
//     fields) is mentioned by name in at least one checked-in markdown
//     file, so no simulation knob can ship undocumented.
//     Roots without that file (test fixtures) skip this check.
//
// Usage:
//
//	go run ./cmd/checkdocs        # check the repository rooted at .
//	go run ./cmd/checkdocs -root DIR
//
// The exit status is non-zero iff any problem is found; every problem is
// reported as "file:line: message" so editors can jump to it.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	problems, err := check(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkdocs:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "checkdocs: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// check walks root and returns all documentation problems, sorted by file.
func check(root string) ([]string, error) {
	var problems []string
	goFiles := map[string][]string{} // package dir -> non-test .go files
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			dir := filepath.Dir(path)
			goFiles[dir] = append(goFiles[dir], path)
		case strings.HasSuffix(name, ".md"):
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	dirs := make([]string, 0, len(goFiles))
	for dir := range goFiles {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		ps, err := checkPackage(goFiles[dir])
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	sort.Strings(mdFiles)
	for _, path := range mdFiles {
		ps, err := checkMarkdown(root, path)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	ps, err := checkConfigCoverage(root, mdFiles)
	if err != nil {
		return nil, err
	}
	problems = append(problems, ps...)
	return problems, nil
}

// configSource is the simulation configuration file whose exported Config
// fields the coverage check audits against the committed documentation.
const configSource = "internal/sim/config.go"

// checkConfigCoverage parses configSource under root and reports every
// exported field of the Config struct that no checked-in markdown file
// mentions by name (word-boundary match, code fences included — fenced
// examples are exactly where config fields are documented). Roots without
// the file skip the check.
func checkConfigCoverage(root string, mdFiles []string) ([]string, error) {
	path := filepath.Join(root, filepath.FromSlash(configSource))
	src, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		return nil, err
	}
	docs := make([]string, 0, len(mdFiles))
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			return nil, err
		}
		docs = append(docs, string(data))
	}
	types, fields := exportedNames(f, "Config")
	var problems []string
	audit := func(kind string, names []structField) {
		for _, n := range names {
			re := regexp.MustCompile(`\b` + regexp.QuoteMeta(n.name) + `\b`)
			if !slices.ContainsFunc(docs, re.MatchString) {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: %s %s is not mentioned in any checked-in markdown file",
					path, fset.Position(n.pos).Line, kind, n.name))
			}
		}
	}
	audit("sim.Config field", fields)
	audit("sim type", types)
	return problems, nil
}

// structField is one exported name found by exportedNames.
type structField struct {
	name string
	pos  token.Pos
}

// exportedNames returns, in declaration order, the exported top-level types
// of f and the exported fields of its struct type typeName (embedded fields
// are skipped).
func exportedNames(f *ast.File, typeName string) (types, fields []structField) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Name.IsExported() {
				types = append(types, structField{name: ts.Name.Name, pos: ts.Name.Pos()})
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ts.Name.Name != typeName {
				continue
			}
			for _, fld := range st.Fields.List {
				for _, n := range fld.Names {
					if n.IsExported() {
						fields = append(fields, structField{name: n.Name, pos: n.Pos()})
					}
				}
			}
		}
	}
	return types, fields
}

// checkPackage parses one package directory and reports missing package and
// exported-declaration doc comments.
func checkPackage(files []string) ([]string, error) {
	fset := token.NewFileSet()
	var problems []string
	hasPkgDoc := false
	sort.Strings(files)
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if f.Doc != nil {
			hasPkgDoc = true
		}
		for _, decl := range f.Decls {
			problems = append(problems, checkDecl(fset, decl)...)
		}
	}
	if !hasPkgDoc && len(files) > 0 {
		problems = append(problems,
			fmt.Sprintf("%s: package has no package doc comment", files[0]))
	}
	return problems, nil
}

// checkDecl reports exported top-level declarations without doc comments.
// For grouped const/var/type declarations the group comment counts for
// every member, matching godoc's rendering.
func checkDecl(fset *token.FileSet, decl ast.Decl) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			kind := "function"
			if d.Recv != nil {
				kind = "method"
				// Methods on unexported receiver types are invisible to
				// godoc; don't demand comments for them.
				if !exportedReceiver(d.Recv) {
					return nil
				}
			}
			report(d.Pos(), kind, d.Name.Name)
		}
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether a method's receiver names an exported
// type (dereferencing a pointer receiver and ignoring type parameters).
func exportedReceiver(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// mdLink matches inline markdown links and images: [text](target) and
// ![alt](target). Reference-style links are rare in this repository and are
// not checked.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// checkMarkdown reports relative link targets in one markdown file that do
// not exist on disk. Absolute URLs, mailto, and pure in-page anchors are
// skipped; a fragment on a relative target is stripped before the check.
func checkMarkdown(root, path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if h := strings.IndexByte(target, '#'); h >= 0 {
				target = target[:h]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if rel, err := filepath.Rel(root, resolved); err != nil || strings.HasPrefix(rel, "..") {
				problems = append(problems,
					fmt.Sprintf("%s:%d: link %q escapes the repository", path, i+1, m[1]))
				continue
			}
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s:%d: broken relative link %q", path, i+1, m[1]))
			}
		}
	}
	return problems, nil
}
