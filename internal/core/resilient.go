package core

import (
	"context"
	"errors"
)

// Solver resilience. When the session's World carries an active
// faults.Injector (and Options.MaxRecoveries ≥ 0) the Krylov driver runs
// every method in resilient mode — the check ladder of loop.iterate
// (driver.go): failed reductions are re-entered with bounded backoff; x is
// checkpointed at every clean check, and a rank crash, a NaN, a recursive
// residual stalled for cgStallChecks checks or a recurrence's own dead end
// rolls every rank back in lockstep; a convergence verdict is confirmed on
// fresh halos before it is trusted. This file holds the ladder's constants
// and what comes after it: a solve whose budgets are exhausted surrenders
// with ErrFaulted, which SolveResilient escalates down the degraded-mode
// ladder — re-estimated eigenvalue bounds for the methods that use them,
// then ChronGear.
//
// Without an active injector none of this runs and the solvers take their
// exact plain paths — fault-free traces stay bitwise identical.

const (
	// reduceRetryLimit bounds consecutive re-entries of one failed
	// reduction. The injector's verdicts are independent per attempt, so
	// with any realistic failure probability the retry loop terminates in
	// one or two rounds; hitting the limit means the collective is
	// persistently gone and the solve surrenders.
	reduceRetryLimit = 6
	// reduceBackoffBase is the virtual-clock backoff (seconds) before the
	// first retry; each further retry doubles it.
	reduceBackoffBase = 1e-4
	// cgStallChecks is the silent-corruption tripwire of every method whose
	// residual is maintained recursively (all but P-CSI): after this many
	// consecutive checks without a 0.1% improvement the driver restores the
	// checkpoint and restarts the recurrence from an honestly recomputed
	// residual (loop.tripwire).
	cgStallChecks = 3
)

// Recovery-kind ordinals carried in EvRecover trace events' Value field.
const (
	recKindReduceRetry = iota
	recKindRestore
	recKindReconverge
)

// SolveResilient is SolveContext plus the degraded-mode ladder. A clean
// solve returns as-is. Context cancellation passes through untouched. When
// the solve surrenders (ErrFaulted) or fails to converge under an active
// injector, it descends the ladder:
//
//  1. for the methods that lean on the Lanczos interval — every row of the
//     methods table whose diverged text is set: re-estimate the eigenvalue
//     bounds from a fresh Lanczos run and retry — an interval knocked loose
//     by injected corruption is the most likely culprit for their
//     divergence;
//  2. for every method but ChronGear itself: fall back to the ChronGear
//     solver — slower per iteration at scale but self-correcting, the
//     degraded mode of last resort.
//
// Membership of both rungs is read from the table, so a new method cannot
// be missing from a list. The rung that produced the result is recorded in Result.Recovery.Degraded
// and counted on the injector; request-level retry lives in internal/serve.
func (s *Session) SolveResilient(ctx context.Context, m Method, b, x0 []float64) (Result, []float64, error) {
	res, x, err := s.SolveContext(ctx, m, b, x0)
	if err == nil && res.Converged {
		return res, x, nil
	}
	inj := s.W.Faults
	if !inj.Enabled() || s.Opts.MaxRecoveries < 0 {
		return res, x, err
	}
	if ctx != nil && ctx.Err() != nil {
		return res, x, err // cancellation is not a fault
	}
	// Only solver failures descend the ladder: ErrFaulted, divergence
	// (NotConvergedError), or a quiet non-convergence. Specification errors
	// and the like pass through.
	if err != nil && !errors.Is(err, ErrFaulted) && !errors.Is(err, ErrNotConverged) {
		return res, x, err
	}

	if methods[m].diverged != "" {
		// Rung 1: re-estimate the Chebyshev interval and retry.
		if _, _, _, eerr := s.EstimateEigenvalues(nil, 0); eerr == nil {
			res2, x2, err2 := s.SolveContext(ctx, m, b, x0)
			if err2 == nil && res2.Converged {
				res2.Recovery.Degraded = "re-eig"
				inj.Recovered("re-eig")
				return res2, x2, nil
			}
			if ctx != nil && ctx.Err() != nil {
				return res2, x2, err2
			}
		}
	}

	if m != MethodChronGear {
		// Rung 2: ChronGear degraded mode.
		res3, x3, err3 := s.SolveContext(ctx, MethodChronGear, b, x0)
		if err3 == nil && res3.Converged {
			res3.Recovery.Degraded = "chrongear"
			inj.Recovered("chrongear")
			return res3, x3, nil
		}
		if err3 == nil {
			err3 = &NotConvergedError{Solver: "chrongear",
				Iterations: res3.Iterations, RelResidual: res3.RelResidual}
		}
		return res3, x3, err3
	}
	return res, x, err // ChronGear is the last rung: nothing below it
}
