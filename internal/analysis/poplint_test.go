package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	poplint "repro/internal/analysis"
)

// TestAllRegistersEveryAnalyzer cross-checks All() against the analysis
// package's own source: every *analysis.Analyzer composite literal declared
// in the package must be in All() (nothing defined-but-unregistered), the
// names must be unique, and there must be at least the four analyzers the
// suite ships with.
func TestAllRegistersEveryAnalyzer(t *testing.T) {
	registered := make(map[string]bool)
	for _, a := range poplint.All() {
		if registered[a.Name] {
			t.Errorf("All() registers %q twice", a.Name)
		}
		registered[a.Name] = true
	}
	if len(registered) < 4 {
		t.Fatalf("All() registers %d analyzers, want at least 4", len(registered))
	}

	declared := declaredAnalyzerNames(t, ".")
	if len(declared) == 0 {
		t.Fatal("found no analysis.Analyzer declarations in package source")
	}
	for name := range declared {
		if !registered[name] {
			t.Errorf("analyzer %q is declared in the package but missing from All()", name)
		}
	}
	for name := range registered {
		if !declared[name] {
			t.Errorf("All() registers %q but no declaration with that Name exists", name)
		}
	}
}

// TestPoplintMainUsesAll checks the multichecker binary wires the whole
// suite into the unitchecker: cmd/poplint must spread All() into
// unitchecker.Main, so an analyzer added to All() is automatically served
// to go vet without touching the command.
func TestPoplintMainUsesAll(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "..", "cmd", "poplint", "main.go"), nil, 0)
	if err != nil {
		t.Fatalf("parsing cmd/poplint/main.go: %v", err)
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Main" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "unitchecker" {
			return true
		}
		if call.Ellipsis == token.NoPos || len(call.Args) != 1 {
			return true
		}
		arg, ok := call.Args[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if argSel, ok := arg.Fun.(*ast.SelectorExpr); ok && argSel.Sel.Name == "All" {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("cmd/poplint/main.go does not spread All() into unitchecker.Main")
	}
}

// declaredAnalyzerNames scans the package directory for
// `&analysis.Analyzer{Name: "...", ...}` declarations and returns the names.
func declaredAnalyzerNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", e.Name(), err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Analyzer" {
				return true
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Name" {
					continue
				}
				if v, ok := kv.Value.(*ast.BasicLit); ok {
					if name, err := strconv.Unquote(v.Value); err == nil {
						names[name] = true
					}
				}
			}
			return true
		})
	}
	return names
}
