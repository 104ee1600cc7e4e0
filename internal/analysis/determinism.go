package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// determinismScope is the set of packages whose numerics must be bitwise
// reproducible run to run: the solver core, the communication substrate,
// the stencil kernels, the EVP preconditioner factorization, and the fault
// injector (whose schedule is a pure function of (seed, class, rank, seq)).
var determinismScope = []string{
	"repro/internal/core",
	"repro/internal/comm",
	"repro/internal/stencil",
	"repro/internal/evp",
	"repro/internal/faults",
}

// Determinism reports nondeterminism sources in the numerics packages:
// wall-clock reads, math/rand draws, map-range iteration that accumulates
// floats or reaches a collective, and goroutine bodies that write captured
// floating-point state (spawn-order-dependent accumulation).
//
// The repo's golden traces assert bitwise-identical residual histories at
// any rank count, and the paper's scaling analysis depends on runs being
// reproducible (DESIGN.md §2, §9): every stochastic input — OS-noise
// jitter, network contention, fault schedules — is drawn from seeded
// counter hashes keyed on (rank, seq), never from wall clocks or global
// RNGs. Map iteration order and goroutine scheduling are the two ways Go
// silently reorders float additions; both are forbidden wherever the sums
// feed a reduction payload or a field update.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, math/rand, and map-order/goroutine-order float accumulation" +
		" in the deterministic numerics packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDeterminism,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !pkgInScope(pass, determinismScope...) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	info := pass.TypesInfo

	nodes := []ast.Node{
		(*ast.CallExpr)(nil),
		(*ast.SelectorExpr)(nil),
		(*ast.RangeStmt)(nil),
		(*ast.GoStmt)(nil),
	}
	ins.Preorder(nodes, func(n ast.Node) {
		if inTestFile(pass.Fset, n.Pos()) {
			return
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			f := calleeFunc(info, x)
			if f == nil {
				return
			}
			if isPkgFunc(f, "time", "Now") || isPkgFunc(f, "time", "Since") || isPkgFunc(f, "time", "Until") {
				pass.Reportf(x.Pos(), "wall-clock read time.%s in deterministic package %s: virtual time comes from the CostModel, never the host clock", f.Name(), pass.Pkg.Name())
			}
		case *ast.SelectorExpr:
			// Any use of math/rand (v1 or v2): the only sanctioned
			// randomness is the seeded counter-hash injector/noise draws.
			if id, ok := x.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok {
					p := pn.Imported().Path()
					if p == "math/rand" || p == "math/rand/v2" {
						pass.Reportf(x.Pos(), "use of %s.%s in deterministic package %s: draw from the seeded splitmix64 streams instead", p, x.Sel.Name, pass.Pkg.Name())
					}
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, x)
		case *ast.GoStmt:
			checkGoAccumulation(pass, x)
		}
	})
	return nil, nil
}

// checkMapRange reports a range over a map whose body performs
// floating-point accumulation or reaches a collective: Go randomizes map
// iteration order, so such loops sum in a different association every run.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if isFloat(pass.TypesInfo.TypeOf(l)) {
					pass.Reportf(rng.Pos(), "map-range body writes floating-point data (%s): map iteration order is randomized, so the accumulation order differs every run", types.ExprString(l))
					return false
				}
			}
		case *ast.CallExpr:
			if name := rankMethodName(pass.TypesInfo, x); collectiveMethods[name] {
				pass.Reportf(rng.Pos(), "map-range body reaches collective %s: map iteration order is randomized, so ranks would issue collectives in differing orders", name)
				return false
			}
		}
		return true
	})
}

// checkGoAccumulation reports goroutine bodies that write floating-point
// variables captured from the enclosing function: completion order is
// scheduler-dependent, so such writes are exactly the nondeterministic
// accumulation the binomial reduction tree exists to avoid.
func checkGoAccumulation(pass *analysis.Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, l := range as.Lhs {
			if !isFloat(pass.TypesInfo.TypeOf(l)) {
				continue
			}
			if root := rootIdent(l); root != nil {
				if v, ok := pass.TypesInfo.Uses[root].(*types.Var); ok && capturedBy(v, lit) {
					pass.Reportf(as.Pos(), "goroutine writes captured floating-point state %s: spawn/completion order is scheduler-dependent, making the accumulation nondeterministic", types.ExprString(l))
					return false
				}
			}
		}
		return true
	})
}

// rootIdent returns the base identifier of an lvalue (x, x.f, x[i], *x …).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// capturedBy reports whether v is declared outside lit (a true capture,
// not a parameter or local of the goroutine body).
func capturedBy(v *types.Var, lit *ast.FuncLit) bool {
	if v.Parent() == nil { // struct fields etc.: judged by their root elsewhere
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}
