package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// Method selects the barotropic solver algorithm. The zero value is
// ChronGear, POP's production solver, so a zero-initialized configuration
// matches POP's defaults.
type Method int

const (
	// MethodChronGear is the Chronopoulos–Gear solver (Algorithm 1):
	// POP's production PCG variant with one fused global reduction per
	// iteration.
	MethodChronGear Method = iota
	// MethodPCG is classic preconditioned conjugate gradients, with two
	// global reductions per iteration.
	MethodPCG
	// MethodPCSI is the paper's preconditioned Classical Stiefel Iteration
	// (Algorithm 2): no reductions outside convergence checks.
	MethodPCSI
	// MethodCSI is the plain Stiefel iteration of Hu et al. 2013 — P-CSI
	// run with identity preconditioning. Construction-time code (pop's
	// NewSolver, the solve service) maps it to MethodPCSI plus
	// PrecondIdentity; the methods table gives it MethodPCSI's row.
	MethodCSI
	// MethodSStep is the communication-avoiding s-step PCG with a Chebyshev
	// basis (sstep.go): Options.SStep matrix-vector products batched between
	// single fused global reductions — at most ceil(iters/s)+1 reductions per
	// converged solve.
	MethodSStep
)

// methodSpec is one row of the methods table: everything the Krylov driver
// (driver.go) and the degraded-mode ladder (resilient.go) need to know about
// a method, as data. Adding a method is a recurrence, a constant, a row here
// and a spelling in methodSpellings.
type methodSpec struct {
	name string // Result.Solver and error texts
	// diverged is set for the methods that lean on the session's Lanczos
	// estimate [ν, μ] (the driver estimates it when absent, SolveResilient
	// re-estimates it as its first rung): how the error of a diverged solve
	// introduces the interval it blames.
	diverged string
	shape    func(Options) shape // what the driver must know about a step
	new      func() recurrence   // one per rank, made on the rank's first solve
}

// methods is the table, indexed by Method.
var methods = [...]methodSpec{
	MethodChronGear: {name: "chrongear", new: func() recurrence { return new(chronGear) },
		shape: func(o Options) shape { return shape{width: 2, span: o.CheckEvery, recursive: true} }},
	MethodPCG: {name: "pcg", new: func() recurrence { return new(pcg) },
		shape: func(o Options) shape { return shape{width: 1, span: o.CheckEvery, recursive: true} }},
	MethodPCSI: pcsiSpec,
	MethodCSI:  pcsiSpec,
	MethodSStep: {name: "sstep", diverged: "s-step PCG diverged; Chebyshev basis interval",
		new: func() recurrence { return new(sstep) }, shape: sstepShape},
}

var pcsiSpec = methodSpec{name: "pcsi", diverged: "P-CSI diverged; Chebyshev interval",
	new:   func() recurrence { return new(pcsi) },
	shape: func(o Options) shape { return shape{span: o.CheckEvery} }}

// String returns the name used in CLI flags and experiment tables: m's
// first spelling in methodSpellings.
func (m Method) String() string {
	if name, ok := spellingOf(methodSpellings, m); ok {
		return name
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Valid reports whether m is one of the defined solver methods — a row of
// the methods table.
func (m Method) Valid() bool {
	return m >= 0 && int(m) < len(methods)
}

// Precision is a vestige pinned by benchmark/: the frozen benchmark calls
// api.HashSolve(grid, method, precond, pop.Float64, …)
// (benchmark/probes_serving.go:26, benchmark/bench_test.go:152), so the
// type and its one value outlive the single-precision solve path they once
// selected against. Nothing else reads them; ROADMAP item 2a drops both
// with HashSolve's parameter in the next benchmark PR.
type Precision int

// Float64 is the only Precision: every solve runs in double precision.
// Pinned by benchmark/ (see Precision).
const Float64 Precision = 0

// methodSpellings maps every accepted method name onto its enum value, in
// documentation order with the default spelling first. ParseMethod and
// MethodNames both read this table — the single source of truth for the
// accepted spellings, so the lists the api package surfaces in FieldError
// 400 bodies can never drift from what the parser takes.
var methodSpellings = []enumSpelling[Method]{
	{"chrongear", MethodChronGear},
	{"pcg", MethodPCG},
	{"pcsi", MethodPCSI},
	{"csi", MethodCSI},
	{"sstep", MethodSStep},
}

// precondSpellings is the preconditioner spelling table (ParsePrecond,
// PrecondNames), default spelling first.
var precondSpellings = []enumSpelling[PrecondType]{
	{"diagonal", PrecondDiagonal},
	{"evp", PrecondEVP},
	{"blocklu", PrecondBlockLU},
	{"none", PrecondIdentity},
}

// enumSpelling is one accepted wire spelling of an enum value.
type enumSpelling[T comparable] struct {
	name  string
	value T
}

// spellingOf returns the first (canonical) spelling of v in table.
func spellingOf[T comparable](table []enumSpelling[T], v T) (string, bool) {
	for _, sp := range table {
		if sp.value == v {
			return sp.name, true
		}
	}
	return "", false
}

// spellingNames flattens a spelling table to its accepted names, in order.
func spellingNames[T comparable](table []enumSpelling[T]) []string {
	out := make([]string, len(table))
	for i, sp := range table {
		out[i] = sp.name
	}
	return out
}

// parseSpelling resolves s against a spelling table ("" selects the first
// entry's value, the documented default).
func parseSpelling[T comparable](table []enumSpelling[T], s, kind string) (T, error) {
	if s == "" {
		return table[0].value, nil
	}
	for _, sp := range table {
		if s == sp.name {
			return sp.value, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("core: unknown %s %q: %w", kind, s, ErrBadSpec)
}

// MethodNames lists the spellings ParseMethod accepts ("" selects the
// first entry). The returned slice is a copy.
func MethodNames() []string { return spellingNames(methodSpellings) }

// PrecondNames lists the spellings ParsePrecond accepts ("" selects the
// first entry). The returned slice is a copy.
func PrecondNames() []string { return spellingNames(precondSpellings) }

// ParseMethod maps a method name ("chrongear", "pcg", "pcsi", "csi",
// "sstep"; "" selects the ChronGear default) onto its enum value.
// Unknown names return an error matching errors.Is(err, ErrBadSpec).
func ParseMethod(s string) (Method, error) {
	return parseSpelling(methodSpellings, s, "method")
}

// ParsePrecond maps a preconditioner name ("diagonal", "evp", "blocklu",
// "none"; "" selects the diagonal default) onto its enum value. Unknown
// names return an error matching errors.Is(err, ErrBadSpec).
func ParsePrecond(s string) (PrecondType, error) {
	return parseSpelling(precondSpellings, s, "preconditioner")
}

// Solve is SolveContext with a background context.
func (s *Session) Solve(m Method, b, x0 []float64) (Result, []float64, error) {
	return s.SolveContext(context.Background(), m, b, x0)
}

// SolveContext runs the selected method on right-hand side b with initial
// guess x0 (nil = zero), honouring ctx: cancellation is observed at every
// convergence-check boundary (each CheckEvery iterations, each block for
// s-step), so an interrupted solve never perturbs the numerics between
// checks — the residual history of a cancelled solve is a bitwise prefix of
// the uncancelled one, and the solve returns the current iterate together
// with an error matching ctx.Err(). x0 is not modified; the returned
// solution slice is the session's reusable output arena, valid until the
// next solve on this session.
//
// The solve adopts ctx's request-scoped trace ID (obs.ContextWithTraceID; 0
// when ctx carries none): the session world's ID is set before dispatch, so
// every rank-level span the solve emits — and the returned Result — carries
// this request's ID, never a previous solve's. This is the one place the
// world's ID is set.
func (s *Session) SolveContext(ctx context.Context, m Method, b, x0 []float64) (Result, []float64, error) {
	if !m.Valid() {
		return Result{}, nil, fmt.Errorf("core: unknown method %v: %w", m, ErrBadSpec)
	}
	if len(b) != s.G.N() {
		return Result{}, nil, fmt.Errorf("core: rhs length %d, want %d: %w", len(b), s.G.N(), ErrBadSpec)
	}
	if x0 == nil {
		x0 = s.zeroX0()
	} else if len(x0) != s.G.N() {
		return Result{}, nil, fmt.Errorf("core: x0 length %d, want %d: %w", len(x0), s.G.N(), ErrBadSpec)
	}
	s.W.SetTraceID(obs.TraceIDFromContext(ctx))
	res, x, err := s.solve(ctx, m, b, x0)
	res.TraceID = s.W.TraceID()
	return res, x, err
}
