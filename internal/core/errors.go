package core

import (
	"errors"
	"fmt"
)

// Typed errors for the public solve path. Callers match them with the
// standard errors.Is / errors.As machinery:
//
//	if errors.Is(err, core.ErrNotConverged) { ... }
//	var nc *core.NotConvergedError
//	if errors.As(err, &nc) { log(nc.Iterations, nc.RelResidual) }
var (
	// ErrBadSpec marks configuration errors: unknown method or
	// preconditioner names, mismatched operator/grid shapes, out-of-range
	// tolerances, wrong-length vectors. Always detected at construction or
	// call entry, never mid-solve.
	ErrBadSpec = errors.New("bad solver specification")

	// ErrNotConverged marks solves that terminated without meeting their
	// tolerance. Concrete errors carry a *NotConvergedError with the
	// iteration count and final residual.
	ErrNotConverged = errors.New("solver did not converge")

	// ErrEigEstimate marks a failed Chebyshev-bound estimation: the Lanczos
	// process terminated before producing a single usable step, so P-CSI has
	// no interval [ν, μ] to iterate on. Distinct from ErrBadSpec (the inputs
	// were plausible) and from ErrNotConverged (no solve was attempted).
	ErrEigEstimate = errors.New("eigenvalue estimation produced no bounds")
)

// NotConvergedError reports a solve that stopped short of its tolerance,
// carrying the diagnostic state the caller needs to decide between retry,
// fallback, and surfacing the failure. It matches
// errors.Is(err, ErrNotConverged).
type NotConvergedError struct {
	Solver      string  // method name ("pcsi", "chrongear", ...)
	Iterations  int     // iterations executed before giving up
	RelResidual float64 // Result.RelResidual: of the returned x when MaxIters ended the solve
}

// Error renders the non-convergence diagnostic.
func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("core: %s did not converge after %d iterations (relative residual %.3g)",
		e.Solver, e.Iterations, e.RelResidual)
}

// Unwrap makes errors.Is(err, ErrNotConverged) match.
func (e *NotConvergedError) Unwrap() error { return ErrNotConverged }
