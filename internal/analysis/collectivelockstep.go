package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CollectiveLockstep reports collective communication calls (comm.Rank's
// AllReduce, Barrier, Exchange, ExchangeMulti and comm.Shard's AllReduce,
// Exchange, ExchangeMulti) that are reachable only under a branch
// conditioned on rank-local state, or inside a per-rank pass (a range over
// Shard.Each) where a shard would enter them once per rank.
//
// The SPMD contract (comm.World.RunShards for shard programs, World.Run for
// rank programs) requires every shard — every rank — to make collective
// calls in the same program order, exactly as MPI does; a collective behind
// `if somethingOnlyThisRankKnows { … }` deadlocks the ranks that skip it, or
// silently misaligns the reduction sequence — the failure mode the paper's
// P-CSI depends on never happening (one misordered global_sum and the
// Chebyshev iteration is no longer comparing the same residual on every
// rank). The analyzer computes, per function, the set of values tainted by
// rank-local data — anything derived from a rank handle's own fields
// (r.ID, r.Blocks, r.Clock(), …) or a shard handle's (sh.ID, sh.Ranks) —
// and reports collectives whose enclosing if/for/switch/select conditions
// mention tainted values.
//
// Two escapes keep the rule aligned with the SPMD idioms the solvers use:
//
//   - Values produced by a collective, or by comm.Rank's documented
//     lockstep accessors (ReduceFailed, ReduceSeq), are identical on every
//     rank, so conditions on data derived from them (reduced residuals,
//     shared convergence verdicts, crash flags that rode a reduction) are
//     divergence-safe.
//   - Same-package helper calls are followed one level interprocedurally:
//     the callee's body is solved with the caller's argument taint, and
//     the call result is tainted only when the callee actually returns
//     rank-local data. `g, n, ok := reduceRetry(r, …)` stays lockstep
//     because reduceRetry returns only reduction results, while a helper
//     returning `r.ID` taints its callers — the hole the v1 rule left
//     open by trusting any function handed the bare *comm.Rank. Calls
//     that do not resolve to a same-package declaration keep the v1
//     behavior: a bare rank or shard handle does not propagate taint, every
//     other argument does.
//
// Taint is also tracked through struct fields of the package's own types,
// package-wide: an assignment `c.mine = r.ID` in one method taints the
// field for every function that reads it, so state a solver parks in a
// struct between hooks (the Krylov driver's loop and its recurrences keep
// their scalars there, not in closure locals) is followed the way a local
// variable is. The field set is solved to a fixpoint over every function of
// the package before any function is checked. It is per field, not per
// object: which per-rank object a value is read from is not data.
//
// The comm package itself — the runtime that implements the collectives out
// of channels — is exempt.
var CollectiveLockstep = &analysis.Analyzer{
	Name: "collectivelockstep",
	Doc: "report collectives (AllReduce/Exchange/Barrier) guarded by rank-local conditions;" +
		" collectives must be reached in lockstep on every rank",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCollectiveLockstep,
}

func runCollectiveLockstep(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Path() == commRankPath || !libraryScope(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Index the package's own function declarations so the taint analysis
	// can follow helper calls one level into their bodies.
	decls := make(map[*types.Func]*ast.FuncDecl)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		if f, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			decls[f] = fd
		}
	})

	// Solve the package-wide field taint first: a field tainted in one
	// function feeds locals — and through them other fields — elsewhere, so
	// iterate over the whole package until the set stops growing (each
	// round moves taint at least one function further; the bound only
	// guards against a pathological chain).
	fields := make(map[*types.Var]bool)
	for range 8 {
		before := len(fields)
		for _, fd := range decls {
			newTaintCtx(pass.TypesInfo, decls, fields).solve(fd.Body)
		}
		if len(fields) == before {
			break
		}
	}

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
			return
		}
		tc := newTaintCtx(pass.TypesInfo, decls, fields)
		tc.solve(fd.Body)
		checkLockstep(pass, tc, fd.Body)
	})
	return nil, nil
}

// libraryScope reports whether the pass is over a production (non-test)
// package. Synthesized external test packages are skipped wholesale;
// in-package test files are filtered per site by inTestFile.
func libraryScope(pass *analysis.Pass) bool {
	p := pass.Pkg.Path()
	return !isTestPkgPath(p)
}

// checkLockstep walks body keeping the enclosing control-flow conditions,
// and reports collective calls governed by a tainted (rank-local) one.
func checkLockstep(pass *analysis.Pass, tc *taintCtx, body ast.Node) {
	// guards is the stack of (condition, description) pairs governing the
	// node currently being visited.
	type guard struct {
		cond ast.Expr
		kind string
	}
	var guards []guard

	var walk func(n ast.Node)
	push := func(cond ast.Expr, kind string) { guards = append(guards, guard{cond, kind}) }
	pop := func() { guards = guards[:len(guards)-1] }

	walk = func(n ast.Node) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			if x.Init != nil {
				walk(x.Init)
			}
			push(x.Cond, "if")
			walk(x.Body)
			if x.Else != nil {
				walk(x.Else)
			}
			pop()
		case *ast.ForStmt:
			if x.Init != nil {
				walk(x.Init)
			}
			if x.Cond != nil {
				push(x.Cond, "for")
			} else {
				push(nil, "for")
			}
			if x.Post != nil {
				walk(x.Post)
			}
			walk(x.Body)
			pop()
		case *ast.RangeStmt:
			kind := "range"
			if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok && sel.Sel.Name == "Each" &&
				isShardType(pass.TypesInfo.TypeOf(sel.X)) {
				kind = "pass"
			}
			push(x.X, kind)
			walk(x.Body)
			pop()
		case *ast.SwitchStmt:
			if x.Init != nil {
				walk(x.Init)
			}
			for _, stmt := range x.Body.List {
				cc := stmt.(*ast.CaseClause)
				for _, c := range cc.List {
					push(x.Tag, "switch")
					push(c, "case")
					for _, s := range cc.Body {
						walk(s)
					}
					pop()
					pop()
				}
				if len(cc.List) == 0 { // default clause: only the tag governs
					push(x.Tag, "switch")
					for _, s := range cc.Body {
						walk(s)
					}
					pop()
				}
			}
		case *ast.TypeSwitchStmt:
			if x.Init != nil {
				walk(x.Init)
			}
			push(nil, "type switch")
			walk(x.Body)
			pop()
		case *ast.SelectStmt:
			push(nil, "select")
			walk(x.Body)
			pop()
		case *ast.CallExpr:
			if name := rankMethodName(pass.TypesInfo, x); collectiveMethods[name] {
				for _, g := range guards {
					if g.kind == "select" {
						pass.Reportf(x.Pos(), "collective %s inside select: case choice is scheduling-dependent, ranks will diverge", name)
						break
					}
					if g.kind == "pass" {
						pass.Reportf(x.Pos(), "collective %s inside a per-rank pass (range over Shard.Each): the shard would enter it once per rank", name)
						break
					}
					if g.cond != nil && tc.tainted(g.cond) {
						pass.Reportf(x.Pos(),
							"collective %s is guarded by rank-local condition %q (%s); collectives must be reached in lockstep on every rank — condition only on data that rode a prior reduction",
							name, types.ExprString(g.cond), g.kind)
						break
					}
				}
			}
			for _, a := range x.Args {
				walk(a)
			}
			walk(x.Fun)
		default:
			// Generic traversal for everything without control-flow meaning.
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				switch c.(type) {
				case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
					*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.CallExpr:
					walk(c)
					return false
				}
				return true
			})
		}
	}
	walk(body)
}

// taintCtx tracks which local variables carry rank-local data within one
// top-level function (nested function literals included: captured variables
// share the same *types.Var objects, so taint flows into the SPMD program
// closures the solvers pass to World.RunShards).
type taintCtx struct {
	info *types.Info
	set  map[*types.Var]bool
	// fields is the package-wide set of tainted struct fields, shared by
	// every context of one pass.
	fields map[*types.Var]bool
	// decls maps the package's own functions to their declarations for
	// one-level interprocedural summaries.
	decls map[*types.Func]*ast.FuncDecl
	// depth is the summary nesting level: helper bodies are solved at
	// depth 1, where further helper calls fall back to the syntactic rule,
	// bounding the analysis to one interprocedural level.
	depth int
	// memo caches helper summaries by (declaration, argument-taint mask);
	// the in-flight entry doubles as the recursion guard.
	memo map[summaryKey]bool
}

// summaryKey identifies one helper summary: the callee declaration and the
// bitmask of which incoming parameters (receiver first) carry taint.
type summaryKey struct {
	fd   *ast.FuncDecl
	mask uint64
}

func newTaintCtx(info *types.Info, decls map[*types.Func]*ast.FuncDecl, fields map[*types.Var]bool) *taintCtx {
	return &taintCtx{
		info:   info,
		set:    make(map[*types.Var]bool),
		fields: fields,
		decls:  decls,
		memo:   make(map[summaryKey]bool),
	}
}

// solve runs the forward taint propagation to a fixpoint over body.
func (tc *taintCtx) solve(body ast.Node) {
	for range 32 {
		if !tc.propagate(body) {
			return
		}
		if tc.depth == 0 {
			clear(tc.memo) // summaries may have read fields that have since grown
		}
	}
}

// propagate performs one pass over every assignment-like statement, marking
// left-hand sides whose right-hand sides are tainted. Returns whether the
// set grew.
func (tc *taintCtx) propagate(body ast.Node) bool {
	grew := false
	mark := func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := tc.objOf(x).(*types.Var); ok && !tc.set[v] {
				tc.set[v] = true
				grew = true
			}
		case *ast.SelectorExpr:
			// A write to a struct field taints the field package-wide.
			// Writes through indices do not track.
			sel := tc.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			if v := sel.Obj().(*types.Var); !tc.fields[v] {
				tc.fields[v] = true
				grew = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
				if tc.tainted(x.Rhs[0]) {
					for _, l := range x.Lhs {
						mark(l)
					}
				}
				return true
			}
			for i, r := range x.Rhs {
				if tc.tainted(r) {
					mark(x.Lhs[i])
				}
			}
		case *ast.RangeStmt:
			if tc.tainted(x.X) {
				if x.Key != nil {
					mark(x.Key)
				}
				if x.Value != nil {
					mark(x.Value)
				}
			}
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if tc.tainted(v) {
					if len(x.Values) == len(x.Names) {
						mark(x.Names[i])
					} else {
						for _, name := range x.Names {
							mark(name)
						}
					}
				}
			}
		}
		return true
	})
	return grew
}

// tainted reports whether e mentions rank-local data: a field or
// non-lockstep method of the rank handle, or a variable previously marked.
func (tc *taintCtx) tainted(e ast.Expr) bool {
	found := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if name := rankMethodName(tc.info, x); name != "" &&
				(collectiveMethods[name] || lockstepRankMethods[name]) {
				return false // result is identical on every rank
			}
			// One-level interprocedural rule: a call resolving to a
			// same-package declaration is summarized — its result is tainted
			// exactly when the callee's returns are, given this call's
			// argument taint.
			if tc.depth == 0 {
				if f := calleeFunc(tc.info, x); f != nil {
					if fd, ok := tc.decls[f]; ok {
						if tc.summaryTainted(fd, x) {
							found = true
						}
						return false
					}
				}
			}
			// Fallback for unresolvable or cross-package calls: a bare rank
			// handle passed whole does not taint the call; every other
			// argument propagates.
			for _, a := range x.Args {
				if tc.isBareRank(a) {
					continue
				}
				ast.Inspect(a, visit)
			}
			ast.Inspect(x.Fun, visit)
			return false
		case *ast.SelectorExpr:
			if t := tc.info.TypeOf(x.X); t != nil && isRankType(t) {
				name := x.Sel.Name
				if name == "World" || collectiveMethods[name] || lockstepRankMethods[name] {
					return false // shared world config / lockstep accessors
				}
				found = true // r.ID, r.Blocks, r.Clock, … — rank-local
				return false
			}
			return true
		case *ast.Ident:
			if v, ok := tc.objOf(x).(*types.Var); ok && (tc.set[v] || tc.fields[v]) {
				found = true
			}
			return false
		case *ast.FuncLit:
			return false // the closure value itself is not data
		}
		return true
	}
	ast.Inspect(e, visit)
	return found
}

// summaryTainted reports whether the call's results carry rank-local data:
// the callee body is solved in a fresh context seeded with the caller-side
// taint of each argument (the bare rank handle itself is not data), then
// every return expression is checked. Summaries are memoized per
// (declaration, argument-taint mask), and the in-flight memo entry answers
// recursive calls with "clean" so the computation terminates.
func (tc *taintCtx) summaryTainted(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	pvars := paramVars(tc.info, fd)
	paramStart := 0
	var seed []*types.Var
	var mask uint64
	markParam := func(i int) {
		if i >= 0 && i < len(pvars) && pvars[i] != nil {
			seed = append(seed, pvars[i])
			if i < 64 {
				mask |= 1 << i
			}
		}
	}
	if fd.Recv != nil {
		paramStart = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if !tc.isBareRank(sel.X) && tc.tainted(sel.X) {
				markParam(0)
			}
		}
	}
	for i, a := range call.Args {
		if tc.isBareRank(a) {
			continue
		}
		if tc.tainted(a) {
			idx := paramStart + i
			if idx >= len(pvars) { // variadic tail
				idx = len(pvars) - 1
			}
			markParam(idx)
		}
	}

	key := summaryKey{fd: fd, mask: mask}
	if r, ok := tc.memo[key]; ok {
		return r
	}
	tc.memo[key] = false // recursion guard: self-calls answer clean
	sub := &taintCtx{info: tc.info, set: make(map[*types.Var]bool), fields: tc.fields,
		decls: tc.decls, depth: tc.depth + 1, memo: tc.memo}
	for _, v := range seed {
		sub.set[v] = true
	}
	sub.solve(fd.Body)
	result := returnsTainted(sub, fd)
	tc.memo[key] = result
	return result
}

// paramVars lists the callee's parameter variables, receiver first; an
// unnamed receiver or parameter occupies its slot as nil.
func paramVars(info *types.Info, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	add := func(fl *ast.Field) {
		if len(fl.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, nm := range fl.Names {
			v, _ := info.Defs[nm].(*types.Var)
			out = append(out, v)
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		add(fd.Recv.List[0])
	}
	if fd.Type.Params != nil {
		for _, fl := range fd.Type.Params.List {
			add(fl)
		}
	}
	return out
}

// returnsTainted reports whether any return of fd (explicit result
// expressions, or named results on a naked return) is tainted in the
// solved callee context. Returns inside nested function literals belong to
// the literal, not fd, and are skipped.
func returnsTainted(sub *taintCtx, fd *ast.FuncDecl) bool {
	var named []*types.Var
	if fd.Type.Results != nil {
		for _, fl := range fd.Type.Results.List {
			for _, nm := range fl.Names {
				if v, ok := sub.info.Defs[nm].(*types.Var); ok {
					named = append(named, v)
				}
			}
		}
	}
	tainted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if tainted {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for _, v := range named {
				if sub.set[v] {
					tainted = true
				}
			}
			return true
		}
		for _, e := range ret.Results {
			if sub.tainted(e) {
				tainted = true
			}
		}
		return true
	})
	return tainted
}

// isBareRank reports whether e is a plain reference to a rank or shard
// handle (the whole handle, not data extracted from it).
func (tc *taintCtx) isBareRank(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		t := tc.info.TypeOf(e)
		return t != nil && isHandleType(t)
	}
	return false
}

func (tc *taintCtx) objOf(id *ast.Ident) types.Object {
	if o := tc.info.Uses[id]; o != nil {
		return o
	}
	return tc.info.Defs[id]
}
