package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CtxFlow reports library code that mints fresh contexts instead of
// threading the caller's: calls to context.Background()/context.TODO()
// outside package main, and functions that accept a context.Context but
// never use it.
//
// PR 3's deterministic cancellation protocol only works if the context the
// HTTP front end carries actually reaches the convergence-check reduction:
// a context.Background() minted in the middle of the call chain silently
// detaches everything below it from deadlines, cancellation, and the
// serve layer's queue-expiry accounting. Two idioms remain legal:
//
//   - nil-defaulting at an API boundary: `if ctx == nil { ctx =
//     context.Background() }` (the exported entrypoints accept nil).
//   - the stdlib's Context-suffix wrapper pattern: a function F whose body
//     immediately delegates to FContext(context.Background(), …) — the
//     documented "background entrypoint" shape (database/sql, net).
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "library code must thread incoming contexts, not mint" +
		" context.Background/TODO mid-chain",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "main" || !libraryScope(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		checkCtxParamUsed(pass, fd)
		checkBackgroundCalls(pass, fd)
	})
	return nil, nil
}

// checkBackgroundCalls reports context.Background/TODO calls in fd's body,
// excepting the nil-default and Context-suffix-wrapper idioms.
func checkBackgroundCalls(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || !(isPkgFunc(f, "context", "Background") || isPkgFunc(f, "context", "TODO")) {
			return true
		}
		if nilDefaultAssign(info, fd.Body, call) || contextWrapperCall(fd, call) {
			return true
		}
		pass.Reportf(call.Pos(), "context.%s() minted in library function %s detaches callees from cancellation and deadlines; thread the caller's ctx instead", f.Name(), fd.Name.Name)
		return true
	})
}

// nilDefaultAssign reports whether call appears as `v = context.Background()`
// inside an `if v == nil` (in either comparison order) — the API-boundary
// nil-defaulting idiom.
func nilDefaultAssign(info *types.Info, body *ast.BlockStmt, call *ast.CallExpr) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		iff, isIf := n.(*ast.IfStmt)
		if !isIf || ok {
			return !ok
		}
		cmp, isCmp := iff.Cond.(*ast.BinaryExpr)
		if !isCmp || cmp.Op != token.EQL {
			return true
		}
		var guarded *ast.Ident
		if id, isID := cmp.X.(*ast.Ident); isID && info.Types[cmp.Y].IsNil() {
			guarded = id
		} else if id, isID := cmp.Y.(*ast.Ident); isID && info.Types[cmp.X].IsNil() {
			guarded = id
		}
		if guarded == nil {
			return true
		}
		for _, stmt := range iff.Body.List {
			as, isAssign := stmt.(*ast.AssignStmt)
			if !isAssign || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			lhs, isID := as.Lhs[0].(*ast.Ident)
			if !isID || as.Rhs[0] != call {
				continue
			}
			if info.Uses[lhs] != nil && info.Uses[lhs] == info.Uses[guarded] {
				ok = true
			}
		}
		return true
	})
	return ok
}

// contextWrapperCall reports whether call is the first argument of a
// delegation from F to FContext — the documented background-entrypoint
// wrapper shape: `func (s *S) Solve(…) { return s.SolveContext(ctx, …) }`.
func contextWrapperCall(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	outer, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok || len(outer.Args) == 0 || ast.Unparen(outer.Args[0]) != call {
		return false
	}
	var calleeName string
	switch fun := ast.Unparen(outer.Fun).(type) {
	case *ast.Ident:
		calleeName = fun.Name
	case *ast.SelectorExpr:
		calleeName = fun.Sel.Name
	default:
		return false
	}
	return calleeName == fd.Name.Name+"Context" ||
		strings.HasSuffix(calleeName, "Context") && strings.HasPrefix(calleeName, fd.Name.Name)
}

// checkCtxParamUsed reports a named context.Context parameter that the body
// never references: the incoming context is dropped on the floor, so
// everything below runs detached.
func checkCtxParamUsed(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if !isContextType(info.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					used = true
				}
				return !used
			})
			if !used {
				pass.Reportf(name.Pos(), "%s has a ctx parameter it never threads: callees run detached from the caller's cancellation and deadlines", fd.Name.Name)
			}
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
