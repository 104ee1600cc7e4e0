package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ReductionWidth reports AllReduce/AllReduceOverlap payloads whose width
// derives from rank-local state.
//
// The fused reductions the paper's solvers depend on (ChronGear's single
// 2-wide reduction, the s-step solver's (2s+1)-wide Gram payload) are
// element-wise sums across ranks: every rank must pack exactly the same
// number of values, in the same order, or the reduction either deadlocks
// or silently folds misaligned columns together — the Gram-payload class
// of lockstep divergence. Widths must therefore be rank-invariant
// expressions: constants (payload[:2]), caller-shared parameters, or
// closed forms of shared options (make([]float64, 2*s+1)). A width
// computed from the rank's own state (len(r.Blocks), r.ID arithmetic) is
// diagnosed at the expression that derives it.
//
// The analyzer reuses the rank-local taint machinery of
// CollectiveLockstep: for each collective payload argument it chases the
// width-determining expressions — slice bounds, make lengths — through
// local assignments, and reports any that mention tainted values. Unknown
// producers (results of calls, parameters) are accepted conservatively.
var ReductionWidth = &analysis.Analyzer{
	Name: "reductionwidth",
	Doc: "report AllReduce payload widths derived from rank-local state;" +
		" reduction widths must be rank-invariant (constants or s-derived closed forms)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runReductionWidth,
}

// reduceWidthMethods are the element-wise reductions whose payload width
// must agree across ranks. Halo exchanges are excluded: their shapes are
// per-rank by construction (each rank sends its own block boundary).
var reduceWidthMethods = map[string]bool{
	"AllReduce":        true,
	"AllReduceOverlap": true,
}

func runReductionWidth(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() == commRankPath || !libraryScope(pass) {
		return nil, nil
	}
	ig := newIgnorer(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		tc := newTaintCtx(pass.TypesInfo, nil, nil)
		tc.solve(fd.Body)
		ast.Inspect(fd.Body, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := rankMethodName(pass.TypesInfo, call)
			if !reduceWidthMethods[name] || len(call.Args) == 0 {
				return true
			}
			checkWidth(pass, ig, tc, fd, call.Args[0], name, make(map[*types.Var]bool))
			return true
		})
	})
	return nil, nil
}

// checkWidth validates the width of one reduction payload expression,
// chasing local variables to their producing expressions. seen breaks
// assignment cycles.
func checkWidth(pass *analysis.Pass, ig *ignorer, tc *taintCtx, fd *ast.FuncDecl,
	expr ast.Expr, coll string, seen map[*types.Var]bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SliceExpr:
		for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
			if bound != nil && tc.tainted(bound) {
				reportWidth(ig, bound, coll)
			}
		}
	case *ast.CompositeLit:
		// Literal payloads have a fixed width by construction.
	case *ast.CallExpr:
		if builtinName(pass.TypesInfo, x) == "make" && len(x.Args) >= 2 {
			if tc.tainted(x.Args[1]) {
				reportWidth(ig, x.Args[1], coll)
			}
		}
		// Non-make producers (helper results) are accepted conservatively.
	case *ast.Ident:
		v, ok := tc.objOf(x).(*types.Var)
		if !ok || seen[v] {
			return
		}
		seen[v] = true
		for _, producer := range producers(pass.TypesInfo, fd.Body, v) {
			checkWidth(pass, ig, tc, fd, producer, coll, seen)
		}
	}
}

// producers collects the right-hand sides assigned to v anywhere in body
// (declarations and reassignments), so a payload variable's width is
// checked at every site that shapes it.
func producers(info *types.Info, body ast.Node, v *types.Var) []ast.Expr {
	var out []ast.Expr
	sameVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		return obj == v
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true // multi-value producer: accepted conservatively
			}
			for i, l := range x.Lhs {
				if sameVar(l) {
					out = append(out, x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, name := range x.Names {
				if sameVar(name) {
					out = append(out, x.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// reportWidth emits the rank-variant-width diagnostic at the offending
// width expression.
func reportWidth(ig *ignorer, width ast.Expr, coll string) {
	ig.reportf(width.Pos(),
		"reduction payload width of %s derives from rank-local %q; collective payload widths must be rank-invariant (a constant or an s-derived closed form) so every rank packs the same number of values",
		coll, types.ExprString(width))
}
