package analysis

import (
	"go/ast"
	"go/constant"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// typedErrScope is the error-contract surface: the public facade, the
// serving layer, the wire API, the fleet router, and the solver core —
// the packages whose errors callers match with errors.Is/As (ErrBadSpec,
// ErrOverloaded, *NotConvergedError, …).
var typedErrScope = []string{
	"repro",
	"repro/internal/serve",
	"repro/internal/core",
	"repro/internal/api",
	"repro/internal/fleet",
}

// TypedErr reports error constructions that break the errors.Is/As
// matching contract: fmt.Errorf without a %w verb, and errors.New inside a
// function body (an unmatchable one-off; sentinels belong at package
// level).
//
// The HTTP handler maps solver errors to statuses with errors.Is
// (ErrBadSpec → 400, ErrOverloaded → 429, ErrNotConverged → 422), and
// callers read a failed solve's iterations and residual through
// errors.As(err, *NotConvergedError) — either silently rots if an error
// along the chain is created without wrapping. This analyzer pins the convention the codebase already
// follows: every fmt.Errorf carries %w (wrapping either the underlying
// cause or a typed sentinel), and errors.New appears only in package-level
// sentinel declarations.
var TypedErr = &analysis.Analyzer{
	Name: "typederr",
	Doc: "error returns in the public surface must wrap with %w or use typed" +
		" Err*/*Error values so errors.Is/As matching keeps working",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runTypedErr,
}

func runTypedErr(pass *analysis.Pass) (any, error) {
	if !pkgInScope(pass, typedErrScope...) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Only calls inside function bodies: package-level `var ErrX =
	// errors.New(…)` is the sanctioned sentinel form.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.TypesInfo, call)
			switch {
			case isPkgFunc(f, "errors", "New"):
				pass.Reportf(call.Pos(), "errors.New inside %s creates an unmatchable one-off error; declare a package-level Err* sentinel or a typed *Error and wrap it with %%w", fd.Name.Name)
			case isPkgFunc(f, "fmt", "Errorf"):
				if format, ok := constFormat(pass, call); ok && !strings.Contains(format, "%w") {
					pass.Reportf(call.Pos(), "fmt.Errorf without %%w in %s breaks errors.Is/As matching; wrap the cause or a typed Err* sentinel", fd.Name.Name)
				}
			}
			return true
		})
	})
	return nil, nil
}

// constFormat returns the constant format string of a fmt.Errorf call.
// Non-constant formats are skipped (nothing static to check).
func constFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
