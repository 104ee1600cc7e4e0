package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// commRankPath is the import path of the communication substrate whose
// *Rank and *Shard methods are the collective operations.
const commRankPath = "repro/internal/comm"

// collectiveMethods are the comm.Rank and comm.Shard methods every rank —
// every shard, for a shard program — must call in the same program order
// (the SPMD collectives).
var collectiveMethods = map[string]bool{
	"AllReduce":     true,
	"Barrier":       true,
	"Exchange":      true,
	"ExchangeMulti": true,
}

// isCommType reports whether t is comm.<name> or a pointer to it.
func isCommType(t types.Type, name string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == commRankPath
}

// calleeFunc resolves the *types.Func a call invokes (method or function),
// or nil for builtins, conversions, and indirect calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return typeutil.StaticCallee(info, call)
}

// isPkgFunc reports whether f is a package-level function or method with
// the given package path and name. path is compared exactly.
func isPkgFunc(f *types.Func, path, name string) bool {
	return f != nil && f.Name() == name && f.Pkg() != nil && f.Pkg().Path() == path
}

// collectiveName returns the method name when call is one of the
// collectives on comm.Rank or comm.Shard (or a pointer to either), else "".
func collectiveName(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil || !collectiveMethods[f.Name()] {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if recv := sig.Recv().Type(); !isCommType(recv, "Rank") && !isCommType(recv, "Shard") {
		return ""
	}
	return f.Name()
}

// isFloat reports whether t has floating-point core type, directly or as
// the element of a slice/array (the shapes reduction payloads and field
// accumulators take).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0 || u.Info()&types.IsComplex != 0
	case *types.Slice:
		return isFloat(u.Elem())
	case *types.Array:
		return isFloat(u.Elem())
	}
	return false
}

// pkgInScope reports whether the pass's package path is one of paths.
// In-package test variants share the production path; their _test.go files
// are excluded per diagnostic site. External test packages ("foo_test" /
// "foo.test" synthesized mains) never match and are skipped wholesale.
func pkgInScope(pass *analysis.Pass, paths ...string) bool {
	p := pass.Pkg.Path()
	if isTestPkgPath(p) {
		return false
	}
	for _, want := range paths {
		if p == want {
			return true
		}
	}
	return false
}

// isTestPkgPath reports whether path names a synthesized test package: the
// external-test variant ("…_test") or the generated test main ("….test").
func isTestPkgPath(path string) bool {
	return strings.HasSuffix(path, ".test") || strings.HasSuffix(path, "_test")
}

// inTestFile reports whether pos lies in a _test.go file. The invariants
// poplint enforces bind production code; tests deliberately use rand
// fixtures, wall clocks, and ad-hoc errors.
func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// builtinName returns the name of the builtin a call invokes ("make",
// "append", "cap", …), or "" when the call is not a builtin.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
