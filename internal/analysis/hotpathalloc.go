package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// hotpathDirective marks a function whose body must stay allocation-free in
// the steady state. The marker is a comment line inside (usually ending)
// the function's doc comment:
//
//	// residual computes r = b − A·x …
//	//
//	//pop:hotpath
//	func residual(…)
const hotpathDirective = "//pop:hotpath"

// HotPathAlloc reports allocation sites inside functions annotated
// //pop:hotpath: make, append, new, slice/map composite literals, &T{…},
// fmt calls, string concatenation, interface boxing of non-constant
// arguments, and capturing closures.
//
// PR 2 made the steady-state iterate/halo/reduce paths allocate nothing and
// guards that with `testing.AllocsPerRun` gates — but a benchmark only
// covers the paths its fixture executes. This analyzer turns the property
// into a compile-time check over every path of every annotated function
// (the solver iterate bodies, halo pack/unpack, reduction combine).
//
// One shape is exempt by design: a `make` guarded by a capacity check
// (`if cap(buf) < need { buf = make(…) }`) is the sanctioned amortized-
// growth idiom of the buffer pools — it runs once on first use and never in
// the steady state.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "forbid allocation sites (make/append/fmt/boxing/closures) in functions" +
		" annotated //pop:hotpath",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !isHotPath(fd) || inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		checkHotBody(pass, fd)
	})
	return nil, nil
}

// isHotPath reports whether the function's doc comment carries the
// //pop:hotpath directive.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathDirective) {
			return true
		}
	}
	return false
}

// checkHotBody walks one annotated function body, tracking whether the
// current node sits under a capacity-check branch (the amortized-growth
// exemption).
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := fd.Name.Name
	var capGuarded int // depth of enclosing `if` conditions that call cap()

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch x := n.(type) {
		case *ast.IfStmt:
			if x.Init != nil {
				walk(x.Init)
			}
			walk(x.Cond)
			if condCallsCap(info, x.Cond) {
				capGuarded++
				walk(x.Body)
				capGuarded--
			} else {
				walk(x.Body)
			}
			walk(x.Else)
			return
		case *ast.CallExpr:
			switch builtinName(info, x) {
			case "make":
				if capGuarded == 0 {
					pass.Reportf(x.Pos(), "make in hot path %s allocates every call; preallocate in the session/world arenas (cap-guarded amortized growth is exempt)", name)
				}
			case "append":
				pass.Reportf(x.Pos(), "append in hot path %s may grow and allocate; size the buffer once at setup", name)
			case "new":
				pass.Reportf(x.Pos(), "new in hot path %s allocates; hoist to the enclosing session state", name)
			case "panic", "cap", "len", "copy", "min", "max", "delete", "clear", "real", "imag", "complex", "print", "println":
				// panic is the failure path, not steady state; the rest do
				// not allocate.
			default:
				checkBoxing(pass, x, name)
			}
			for _, a := range x.Args {
				walk(a)
			}
			walk(x.Fun)
			return
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(x.Pos(), "%s literal in hot path %s allocates; hoist to setup", typeKindWord(info.TypeOf(x)), name)
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "&composite-literal in hot path %s escapes to the heap; reuse a preallocated value", name)
				}
			}
		case *ast.BinaryExpr:
			if x.Op.String() == "+" {
				if t := info.TypeOf(x); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(x.Pos(), "string concatenation in hot path %s allocates; hot paths must not build strings", name)
					}
				}
			}
		case *ast.FuncLit:
			if cap := firstCapture(info, x); cap != "" {
				pass.Reportf(x.Pos(), "capturing closure in hot path %s (captures %s) allocates its environment; pass state explicitly or hoist the closure", name, cap)
			}
			// Still walk the body: allocations inside the literal run on
			// the hot path too.
		}
		// Generic descent.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			switch c.(type) {
			case *ast.IfStmt, *ast.CallExpr, *ast.CompositeLit, *ast.UnaryExpr,
				*ast.BinaryExpr, *ast.FuncLit:
				walk(c)
				return false
			}
			return true
		})
	}
	walk(fd.Body)
}

// condCallsCap reports whether an if condition contains a call to the cap
// builtin — the signature of the amortized buffer-growth idiom.
func condCallsCap(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && builtinName(info, call) == "cap" {
			found = true
		}
		return !found
	})
	return found
}

// checkBoxing reports non-constant concrete arguments passed to interface
// parameters: the conversion boxes the value on the heap. Constants convert
// to static interface data and are exempt; fmt calls are reported outright
// (their variadic boxing is the least of their cost).
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, hot string) {
	info := pass.TypesInfo
	f := calleeFunc(info, call)
	if f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hot path %s allocates (formatting state and boxed operands); format outside the iteration", f.Name(), hot)
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Value != nil || tv.IsNil() || tv.Type == nil {
			continue // constants and nil convert without allocating
		}
		if _, argIface := tv.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		pass.Reportf(arg.Pos(), "argument %s boxes a %s into an interface in hot path %s; interface conversion of non-constant values allocates", types.ExprString(arg), tv.Type.String(), hot)
	}
}

// firstCapture returns the name of one variable the literal captures from
// its enclosing function, or "" when it captures nothing heap-worthy.
func firstCapture(info *types.Info, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Parent() == nil {
			return true
		}
		// Package-level variables are not captures; neither are the
		// literal's own params/locals.
		if v.Parent() == types.Universe || v.Pkg() == nil {
			return true
		}
		if v.Parent().Pos() == 0 { // package scope
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		captured = v.Name()
		return false
	})
	return captured
}

// typeKindWord names the allocating composite-literal kind for diagnostics.
func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	default:
		return "slice"
	}
}
