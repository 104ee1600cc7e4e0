// Package analyzertest is a hermetic analysistest replacement: it runs one
// analyzer over a GOPATH-style testdata tree and checks its diagnostics
// against `// want "regexp"` comments, exactly like
// golang.org/x/tools/go/analysis/analysistest.
//
// The real analysistest depends on go/packages, which shells out to the go
// command and module cache; this container builds from a vendored subset of
// x/tools only (see DESIGN.md §10), so the harness here loads testdata
// packages itself: files are parsed with go/parser, intra-testdata imports
// resolve GOPATH-style under <dir>/src/<importpath>, and standard-library
// imports resolve through go/importer's source importer. Analyzer
// dependencies (Requires) are run first. No poplint analyzer exports facts,
// so the pass has no fact accessors: one that started to would fail here on
// its first Export call.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads the package rooted at dir/src/importPath and applies a to it,
// comparing diagnostics against the // want comments in its files. Every
// diagnostic must match a want on its line and every want must be matched.
func Run(t *testing.T, dir string, a *analysis.Analyzer, importPath string) {
	t.Helper()
	pkg, diags := analyze(t, dir, a, importPath)
	checkWants(t, pkg.fset, pkg.files, diags)
}

// Diagnostics runs a over dir/src/importPath and returns the raw diagnostic
// messages without // want matching — for tests that assert an analyzer
// stays silent on a package written for another one.
func Diagnostics(t *testing.T, dir string, a *analysis.Analyzer, importPath string) []string {
	t.Helper()
	_, diags := analyze(t, dir, a, importPath)
	msgs := make([]string, len(diags))
	for i, d := range diags {
		msgs[i] = d.Message
	}
	return msgs
}

// analyze loads dir/src/importPath and returns it with a's diagnostics.
func analyze(t *testing.T, dir string, a *analysis.Analyzer, importPath string) (*loadedPkg, []analysis.Diagnostic) {
	t.Helper()
	pkg, err := newLoader(dir).load(importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", importPath, err)
	}
	var diags []analysis.Diagnostic
	if _, err := run(a, pkg, &diags); err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, importPath, err)
	}
	return pkg, diags
}

// loadedPkg is one type-checked testdata package.
type loadedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	fset  *token.FileSet
}

// loader resolves imports GOPATH-style under root/src, falling back to the
// source importer for the standard library. Loaded packages are memoized so
// diamond imports type-check once.
type loader struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*loadedPkg
}

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{
		root:   root,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		loaded: make(map[string]*loadedPkg),
	}
}

// Import implements types.Importer over the testdata tree.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.loaded[path]; ok {
		return p.pkg, nil
	}
	dir := filepath.Join(ld.root, "src", path)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return ld.std.Import(path)
}

// load parses and type-checks one testdata package by import path.
func (ld *loader) load(path string) (*loadedPkg, error) {
	if p, ok := ld.loaded[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.root, "src", path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:        make(map[ast.Expr]types.TypeAndValue),
		Defs:         make(map[*ast.Ident]types.Object),
		Uses:         make(map[*ast.Ident]types.Object),
		Implicits:    make(map[ast.Node]types.Object),
		Selections:   make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:       make(map[ast.Node]*types.Scope),
		Instances:    make(map[*ast.Ident]types.Instance),
		FileVersions: make(map[*ast.File]string),
	}
	cfg := types.Config{Importer: ld}
	pkg, err := cfg.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, info: info, files: files, fset: ld.fset}
	ld.loaded[path] = p
	return p, nil
}

// run applies a to pkg after its Requires (whose diagnostics are dropped)
// and returns a's result.
func run(a *analysis.Analyzer, pkg *loadedPkg, diags *[]analysis.Diagnostic) (any, error) {
	results := make(map[*analysis.Analyzer]any)
	for _, req := range a.Requires {
		res, err := run(req, pkg, nil)
		if err != nil {
			return nil, err
		}
		results[req] = res
	}
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       pkg.fset,
		Files:      pkg.files,
		Pkg:        pkg.pkg,
		TypesInfo:  pkg.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   results,
		Report: func(d analysis.Diagnostic) {
			if diags != nil {
				*diags = append(*diags, d)
			}
		},
		ReadFile: os.ReadFile,
	}
	res, err := a.Run(pass)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return res, nil
}

// wantRe extracts the expectation list of a // want comment.
var wantRe = regexp.MustCompile(`// want (.*)$`)

// expectation is one `// want` pattern, positioned at a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkWants cross-checks diagnostics against want expectations.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range parsePatterns(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parsePatterns splits the tail of a want comment into its quoted or
// backquoted regular expressions.
func parsePatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want patterns must be quoted or backquoted strings: %q", pos, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want pattern: %q", pos, s)
		}
		raw := s[:end+2]
		if quote == '"' {
			unq, err := strconv.Unquote(raw)
			if err != nil {
				t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
			}
			pats = append(pats, unq)
		} else {
			pats = append(pats, raw[1:len(raw)-1])
		}
		s = strings.TrimSpace(s[end+2:])
	}
	return pats
}
