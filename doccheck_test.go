package pop_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
)

// docPackages is the documented public surface: the facade package plus the
// internal packages whose types it re-exports wholesale through aliases, so
// their godoc IS the public godoc.
var docPackages = []string{
	".", "internal/serve", "internal/obs",
	"internal/analysis", "internal/analysis/analyzertest",
	"internal/api", "internal/fleet", "internal/core",
	"internal/comm", "internal/decomp", "internal/grid", "internal/stencil",
}

// TestPublicSurfaceDocumented fails on any exported identifier in the public
// surface that lacks a doc comment: package-level types, functions, methods
// on exported receivers, consts/vars (a doc comment on the enclosing group
// counts), and exported struct fields. verify.sh runs it as the
// doc-coverage gate, so an undocumented export breaks the build checks, not
// just the rendered godoc.
func TestPublicSurfaceDocumented(t *testing.T) {
	for _, dir := range docPackages {
		var missing []string
		fset := token.NewFileSet()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			missing = append(missing, undocumented(fset, f)...)
		}
		if len(missing) > 0 {
			t.Errorf("package %s: %d undocumented exported identifiers:\n  %s",
				dir, len(missing), strings.Join(missing, "\n  "))
		}
	}
}

// undocumented returns a position-tagged entry for every exported identifier
// in f that has no doc comment.
func undocumented(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s", filepath.Base(p.Filename), p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			groupDoc := d.Doc != nil
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if s.Doc == nil && !groupDoc {
						report(s.Pos(), "type", s.Name.Name)
					}
					// Within an exported struct, every exported field needs
					// its own doc or trailing comment.
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								if n.IsExported() && fld.Doc == nil && fld.Comment == nil {
									report(n.Pos(), "field", s.Name.Name+"."+n.Name)
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && s.Doc == nil && s.Comment == nil && !groupDoc {
							report(n.Pos(), "const/var", n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedReceiver reports whether d is a top-level function or a method on
// an exported receiver type (methods on unexported types are not public
// surface even when their own name is exported).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// commandDocs are the files whose command lines are checked against the
// commands themselves: the user-facing docs and the gate script.
var commandDocs = []string{"README.md", "ARCHITECTURE.md", "SOLVERS.md", "DESIGN.md", "verify.sh"}

// docCommands are the commands whose flags the docs may name.
var docCommands = []string{"popbench", "popserver", "popsolve", "popmodel", "poptrace"}

var (
	docCommand  = regexp.MustCompile(`\b(` + strings.Join(docCommands, "|") + `)\b`)
	docFlag     = regexp.MustCompile(`(?:^|[\s/])-([a-z][a-z0-9]*)`)
	docArtifact = regexp.MustCompile(`BENCH_[A-Za-z0-9_]+\.json\b`)
	docExpIDs   = regexp.MustCompile(`(?:^|\s)-exp[ =]+([A-Za-z0-9_.,]+)`)
	docSpelling = regexp.MustCompile(`(?:^|\s)-(method|solver|precond)[ =]+([A-Za-z0-9_.-]+)`)
	// The three ways the docs attribute an analyzer to poplint: a row of the
	// table headed "Analyzer" (README), a DESIGN §10.1 entry (**`name`** — …),
	// and prose of the shape "the `a`, `b` and `c` analyzers" (the list may
	// wrap across lines, and across verify.sh's comment markers).
	docAnalyzerTable = regexp.MustCompile("(?m)^\\| Analyzer \\|.*\n\\|[-|]+\\|\n((?:\\|.*\n)+)")
	docAnalyzerRow   = regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	docAnalyzerEntry = regexp.MustCompile("\\*\\*`([a-z]+)`\\*\\*")
	docAnalyzerList  = regexp.MustCompile("((?:`[a-z]+`(?:,| and|, and)?[\\s#]+)+)analyzers?\\b")
	docBacktickWord  = regexp.MustCompile("`([a-z]+)`")
	docDirective     = regexp.MustCompile(`//pop[a-z]*:[a-z]+`)
	// verify.sh's test gates: shell assignments of a quoted pattern, and a
	// `go test` line's -run / -fuzz argument (quoted or bare).
	gateAssign = regexp.MustCompile(`(?m)^([a-z_]+)='([^']*)'$`)
	gateRun    = regexp.MustCompile(`\s-run[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	gateFuzz   = regexp.MustCompile(`\s-fuzz[ =](\S+)`)
)

// TestDocsNameRealFlagsAndArtifacts fails on a documented command line that
// no longer runs: every `-flag` written after one of docCommands in
// commandDocs must be a flag that command defines, every `popbench -exp`
// id must be one experiments.Names() registers (or "all"), every
// -method / -solver / -precond value must be a spelling core.ParseMethod /
// ParsePrecond accepts, and every BENCH_*.json they name must exist at the
// repo root. A command line runs from the command's name to the end of its
// (backslash-continued) line or the first backtick, pipe, redirect, `;`, `&`
// or `)`; alternatives written `-a/-b` are each checked. The same files may attribute to
// poplint only analyzers analysis.All() registers (README's table must list
// every one), and may name no comment directive but //pop:hotpath. And no
// verify.sh gate may select nothing: see checkVerifyGates.
func TestDocsNameRealFlagsAndArtifacts(t *testing.T) {
	defined := make(map[string]map[string]bool)
	for _, cmd := range docCommands {
		defined[cmd] = definedFlags(t, filepath.Join("cmd", cmd))
	}
	analyzers := make(map[string]bool)
	for _, a := range analysis.All() {
		analyzers[a.Name] = true
	}
	expIDs := map[string]bool{"all": true}
	for _, id := range experiments.Names() {
		expIDs[id] = true
	}
	set := func(names []string) map[string]bool {
		m := make(map[string]bool)
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	spellings := map[string]map[string]bool{"method": set(core.MethodNames()),
		"solver": set(core.MethodNames()), "precond": set(core.PrecondNames())}
	for _, doc := range commandDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		named := docAnalyzerEntry.FindAllStringSubmatch(text, -1)
		for _, list := range docAnalyzerList.FindAllStringSubmatch(text, -1) {
			named = append(named, docBacktickWord.FindAllStringSubmatch(list[1], -1)...)
		}
		if doc == "README.md" {
			rows := docAnalyzerRow.FindAllStringSubmatch(docAnalyzerTable.FindString(text), -1)
			if len(rows) != len(analyzers) {
				t.Errorf("README.md: the analyzer table has %d rows for %d analyzers", len(rows), len(analyzers))
			}
			named = append(named, rows...)
		}
		for _, name := range named {
			if !analyzers[name[1]] {
				t.Errorf("%s attributes `%s` to poplint, which registers no such analyzer", doc, name[1])
			}
		}
		for _, d := range docDirective.FindAllString(text, -1) {
			if d != "//pop:hotpath" {
				t.Errorf("%s names the directive %s; //pop:hotpath is the only one", doc, d)
			}
		}
	}
	for _, doc := range commandDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			for _, m := range docCommand.FindAllStringSubmatchIndex(line, -1) {
				cmd, rest := line[m[2]:m[3]], line[m[1]:]
				if end := strings.IndexAny(rest, "`|><;&)"); end >= 0 {
					rest = rest[:end]
				}
				for _, f := range docFlag.FindAllStringSubmatch(rest, -1) {
					if !defined[cmd][f[1]] {
						t.Errorf("%s: `%s -%s`: %s defines no such flag", doc, cmd, f[1], cmd)
					}
				}
				for _, v := range docSpelling.FindAllStringSubmatch(rest, -1) {
					if !spellings[v[1]][v[2]] {
						t.Errorf("%s: `%s -%s %s`: not a spelling the parser accepts", doc, cmd, v[1], v[2])
					}
				}
				if cmd != "popbench" {
					continue
				}
				for _, ids := range docExpIDs.FindAllStringSubmatch(rest, -1) {
					for _, id := range strings.Split(ids[1], ",") {
						if !expIDs[id] {
							t.Errorf("%s: `popbench -exp %s`: no experiment %q (have %v)", doc, ids[1], id, experiments.Names())
						}
					}
				}
			}
			for _, name := range docArtifact.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s names %s, which is not at the repo root", doc, name)
				}
			}
		}
	}
	checkVerifyGates(t)
}

// checkVerifyGates holds verify.sh's `go test` lines to the tests they name:
// `go test -run` exits 0 when its pattern matches nothing, so a gate whose
// test was renamed or deleted would pass silently. Every |-alternative of a
// -run pattern must match a Test…, Fuzz… or Example… function of the
// packages the line names, and every -fuzz name a Fuzz… function; a
// "$name" pattern resolves from the script's name='…' assignment, and
// -run=NONE, the documented no-match, must match nothing.
func checkVerifyGates(t *testing.T) {
	raw, err := os.ReadFile("verify.sh")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(raw), "\\\n", " ")
	vars := make(map[string]string)
	for _, m := range gateAssign.FindAllStringSubmatch(text, -1) {
		vars[m[1]] = m[2]
	}
	gates := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") || !strings.Contains(line, "go test") {
			continue
		}
		var funcs []string
		for _, arg := range strings.Fields(line) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				funcs = append(funcs, testFuncs(t, arg)...)
			}
		}
		matching := func(alt string, kinds ...string) int {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("verify.sh: pattern %q: %v", alt, err)
				return 0
			}
			n := 0
			for _, f := range funcs {
				isKind := func(k string) bool { return strings.HasPrefix(f, k) }
				if re.MatchString(f) && slices.ContainsFunc(kinds, isKind) {
					n++
				}
			}
			return n
		}
		if m := gateRun.FindStringSubmatch(line); m != nil {
			gates++
			pattern := m[1] + m[2] + m[3]
			if name, ok := strings.CutPrefix(pattern, "$"); ok {
				if pattern, ok = vars[name]; !ok {
					t.Errorf("verify.sh: -run $%s has no %s='…' assignment", name, name)
				}
			}
			if pattern == "NONE" {
				if n := matching(pattern, "Test", "Fuzz", "Example"); n != 0 {
					t.Errorf("verify.sh: -run=NONE matches %d functions: %s", n, line)
				}
			} else {
				for _, alt := range strings.Split(pattern, "|") {
					if matching(alt, "Test", "Fuzz", "Example") == 0 {
						t.Errorf("verify.sh: -run alternative %q matches no test in %s", alt, strings.TrimSpace(line))
					}
				}
			}
		}
		if m := gateFuzz.FindStringSubmatch(line); m != nil && matching(m[1], "Fuzz") == 0 {
			t.Errorf("verify.sh: -fuzz %q matches no fuzz target in %s", m[1], strings.TrimSpace(line))
		}
	}
	if gates == 0 {
		t.Error("verify.sh: found no `go test -run` gates; the scan is broken")
	}
}

// testFuncs lists the Test…, Fuzz… and Example… functions declared in the
// _test.go files of one `go test` package argument (a trailing /... walks
// its subdirectories).
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	dirs := []string{strings.TrimSuffix(pkg, "/")}
	if root, ok := strings.CutSuffix(pkg, "/..."); ok {
		dirs = nil
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if d != nil && d.IsDir() && d.Name() != "testdata" {
				dirs = append(dirs, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

// definedFlags parses a command's source for flag.<Kind>("name", …) and
// flag.<Kind>Var(&v, "name", …) calls and returns the names.
func definedFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						names[name] = true
					}
				}
			}
			return true
		})
	}
	return names
}
