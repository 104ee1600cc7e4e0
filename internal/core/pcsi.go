package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/comm"
)

// SolvePCSI runs the preconditioned Classical Stiefel Iteration with a
// background context; see SolvePCSIContext.
func (s *Session) SolvePCSI(b, x0 []float64) (Result, []float64, error) {
	return s.SolvePCSIContext(context.Background(), b, x0)
}

// SolvePCSIContext runs the preconditioned Classical Stiefel Iteration
// (paper Algorithm 2) — a Chebyshev-type method whose iteration body
// contains *no* inner products: the only global reductions are the
// convergence checks every CheckEvery iterations. Its Chebyshev interval
// [ν, μ] comes from the Session's eigenvalue estimates; when absent,
// EstimateEigenvalues runs first with the given b (charged to the returned
// Result's EigSteps and the Session's EigenStats, mirroring POP's one-time
// solver initialization).
//
// With PrecondIdentity this is the plain CSI solver of Hu et al. 2013.
//
// Cancellation is observed at convergence-check boundaries only (see the
// session-level cancellation protocol) — for P-CSI those checks are also
// the iteration's only reductions, so a cancelled solve still performs
// zero extra communication.
func (s *Session) SolvePCSIContext(ctx context.Context, b, x0 []float64) (Result, []float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Setup(); err != nil {
		return Result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, ctxSolveErr(ctx, "pcsi", 0)
	}
	if s.Mu == 0 {
		if _, _, _, err := s.EstimateEigenvalues(nil, 0); err != nil {
			return Result{}, nil, err
		}
	}
	if !(s.Nu > 0 && s.Mu > s.Nu) {
		return Result{}, nil, fmt.Errorf("core: invalid Chebyshev interval [%g, %g]: %w", s.Nu, s.Mu, ErrBadSpec)
	}
	o := s.Opts
	out := s.solveOut()
	res := Result{Solver: "pcsi", Precond: o.Precond, Nu: s.Nu, Mu: s.Mu, EigSteps: s.EigSteps}
	trace := &SolveTrace{EigBounds: s.EigTrace,
		Residuals: make([]ResidualPoint, 0, o.MaxIters/o.CheckEvery+1)}
	cancelled := false // written by rank 0 only, read after Run
	faulted := false   // written by rank 0 only, read after Run

	// Resilient mode runs only under an active fault injector; otherwise
	// every branch below reduces to the legacy path and the solve is bitwise
	// identical to a world that never heard of fault injection.
	inj := s.W.Faults
	resilient := inj.Enabled() && o.MaxRecoveries >= 0

	nu, mu := s.Nu, s.Mu

	st := s.W.Run(func(r *comm.Rank) {
		rs := s.state(r)
		nb := len(r.Blocks)
		xs := s.scatterMasked(r, "csi.x", x0)
		bs := s.scatterMasked(r, "csi.b", b)
		rr := s.field(r, "csi.r")
		rp := s.field(r, "csi.rp")
		// dx starts from zero: the recurrence's first update multiplies the
		// previous dx by 0, and a non-finite leftover from an earlier faulted
		// solve on this session would otherwise survive the product.
		dx := s.zeroField(r, "csi.dx")
		// ck is the iteration-state checkpoint (a copy of x at the last
		// clean convergence check), maintained only in resilient mode.
		var ck [][]float64
		if resilient {
			ck = s.field(r, "csi.ckpt")
		}
		// One reduction payload reused by every collective in this program —
		// hoisted so the steady-state loop allocates nothing. Checks append
		// the cancellation flag (and, in resilient mode, the crash flag).
		payload := make([]float64, 3)

		payload[0] = stageInitResidual(r, rs, rr, bs, xs)
		var bnorm float64
		if resilient {
			g, nret, ok := reduceRetry(r, inj, payload[:1])
			if r.ID == 0 {
				res.Recovery.ReduceRetries += nret
			}
			if !ok {
				if r.ID == 0 {
					faulted = true
				}
				return
			}
			bnorm = math.Sqrt(g[0])
		} else {
			bnorm = math.Sqrt(r.AllReduce(payload[:1])[0])
		}
		if r.ID == 0 {
			res.BNorm = bnorm
		}
		if bnorm == 0 {
			s.zeroSolutionExit(r, out, xs)
			if r.ID == 0 {
				res.Converged = true
			}
			return
		}
		target := o.Tol * bnorm

		// Chebyshev parameters from the interval [ν, μ] (Algorithm 2 line
		// 1). Recomputed when stagnation forces the interval wider; the
		// widening is rank-local state (identical on every rank), so
		// shadow the captured bounds.
		nu, mu := nu, mu
		alpha := 2 / (mu - nu)
		beta := (mu + nu) / (mu - nu)
		gamma := beta / alpha // spectrum centre
		inv4a2 := 1 / (4 * alpha * alpha)

		// Algorithm 2 initialization: Δx₀ = γ⁻¹M⁻¹r₀, x₁ = x₀ + Δx₀.
		for i := 0; i < nb; i++ {
			loc := rs.locs[i]
			rs.pre[i].Apply(rp[i], rr[i])
			r.AddFlops(rs.pre[i].ApplyFlops())
			chebStep(loc, xs[i], dx[i], rp[i], 1/gamma, 0)
			r.AddFlops(3 * int64(loc.InteriorLen()))
		}
		r.Exchange(xs)
		for i := 0; i < nb; i++ {
			residual(rs.locs[i], rr[i], bs[i], xs[i])
			r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
		}
		if resilient {
			// Initial checkpoint: the post-initialization iterate (free in
			// the cost model — node-local memory traffic, no communication).
			copyFields(ck, xs)
		}

		omega := 2 / gamma // ω₀
		converged := false
		prevRn := math.Inf(1)
		widenings, slowChecks, raises := 0, 0, 0
		restores := 0 // identical on every rank: driven by reduced verdicts
		k := 0
		for k < o.MaxIters {
			k++
			omega = 1 / (gamma - inv4a2*omega) // the iterated function
			for i := 0; i < nb; i++ {
				loc := rs.locs[i]
				rs.pre[i].Apply(rp[i], rr[i]) // r' = M⁻¹r
				r.AddFlops(rs.pre[i].ApplyFlops())
				chebStep(loc, xs[i], dx[i], rp[i], omega, gamma*omega-1)
				r.AddFlops(3 * int64(loc.InteriorLen()))
			}
			r.Exchange(xs) // the iteration's only communication
			for i := 0; i < nb; i++ {
				residual(rs.locs[i], rr[i], bs[i], xs[i])
				r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
			}
			if k%o.CheckEvery == 0 {
				payload[0] = stageDot(r, rs, rr, rr)
				payload[1] = cancelFlag(ctx)
				var g []float64
				crashed := false
				if resilient {
					// The crash flag rides the check reduction like the
					// cancellation flag: each rank draws its own verdict, and
					// the reduced sum tells every rank whether anyone crashed
					// — so the rollback below is entered in lockstep.
					crashed = inj.CrashRank(r.ID, r.ReduceSeq())
					payload[2] = 0
					if crashed {
						payload[2] = 1
					}
					var nret int
					var ok bool
					g, nret, ok = reduceRetry(r, inj, payload[:3])
					if r.ID == 0 {
						res.Recovery.ReduceRetries += nret
					}
					if !ok {
						if r.ID == 0 {
							faulted = true
						}
						break
					}
				} else {
					g = r.AllReduce(payload[:2])
				}
				rn := math.Sqrt(g[0])
				if r.ID == 0 {
					res.RelResidual = rn / bnorm
				}
				traceResidual(r, trace, k, rn/bnorm)
				doRestore := false
				if resilient && g[2] != 0 {
					// A rank crashed this interval; its iterate is lost. The
					// crash preempts a simultaneous convergence verdict — the
					// collective rolls back first and re-proves convergence
					// from the restored state if it was real.
					if crashed {
						for i := range xs {
							for idx := range xs[i] {
								xs[i][idx] = 0
							}
						}
					}
					doRestore = true
				} else if rn <= target {
					if !resilient {
						converged = true
						break
					}
					// Confirm on fresh halos before trusting the verdict: a
					// halo dropped right before this check leaves a stale
					// residual that can fake convergence. The confirmation
					// recomputes r on freshly exchanged x and re-reduces.
					r.Exchange(xs)
					var cnL float64
					for i := 0; i < nb; i++ {
						residual(rs.locs[i], rr[i], bs[i], xs[i])
						r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
						cnL += rs.locs[i].MaskedDotInterior(rr[i], rr[i])
						r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
					}
					payload[0] = cnL
					g2, nret, ok := reduceRetry(r, inj, payload[:1])
					if r.ID == 0 {
						res.Recovery.ReduceRetries += nret
					}
					if !ok {
						if r.ID == 0 {
							faulted = true
						}
						break
					}
					crn := math.Sqrt(g2[0])
					if crn <= target {
						if r.ID == 0 {
							res.RelResidual = crn / bnorm
						}
						converged = true
						break
					}
					if math.IsNaN(crn) {
						doRestore = true
					} else {
						// False convergence: reset the recurrence from the
						// current fresh-halo iterate and keep iterating.
						omega = 2 / gamma
						prevRn = math.Inf(1)
						slowChecks = 0
						traceRecover(r, k, recKindReconverge)
						if r.ID == 0 {
							res.Recovery.Reconverges++
							inj.Recovered("reconverge")
						}
						continue
					}
				} else if math.IsNaN(rn) {
					if !resilient {
						break
					}
					doRestore = true // NaN tripwire: corrupted halo reached the iterate
				}
				if g[1] != 0 { // some rank saw ctx done — all ranks stop here
					if r.ID == 0 {
						cancelled = true
					}
					break
				}
				if doRestore {
					restores++
					if restores > o.MaxRecoveries {
						if r.ID == 0 {
							faulted = true
						}
						break
					}
					// Collective rollback: every rank restores the last
					// checkpoint, refreshes halos, recomputes the residual,
					// and restarts the Chebyshev recurrence.
					copyFields(xs, ck)
					r.Exchange(xs)
					for i := 0; i < nb; i++ {
						residual(rs.locs[i], rr[i], bs[i], xs[i])
						r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
						// The update direction may carry the NaN that tripped
						// the restore; the recurrence restart must not see it.
						for idx := range dx[i] {
							dx[i][idx] = 0
						}
					}
					omega = 2 / gamma
					prevRn = math.Inf(1)
					slowChecks = 0
					traceRecover(r, k, recKindRestore)
					if r.ID == 0 {
						res.Recovery.Restores++
						inj.Recovered("restore")
					}
					continue
				}
				// Divergence guard: a growing residual means the spectrum
				// leaks *above* μ (Lanczos approaches λ_max from below,
				// and approximate EVP block solves can push eigenvalues
				// slightly past the estimate). Raise μ and restart; give
				// up after a few attempts.
				if rn > 2*prevRn || rn > 1e8*bnorm {
					if raises >= 8 {
						break
					}
					raises++
					mu *= 1.5
					alpha = 2 / (mu - nu)
					beta = (mu + nu) / (mu - nu)
					gamma = beta / alpha
					inv4a2 = 1 / (4 * alpha * alpha)
					omega = 2 / gamma
					prevRn = rn
					traceInterval(r, trace, k, "raise-mu", nu, mu)
					continue
				}
				// Slow-convergence guard: the Lanczos ν approaches λ_min
				// from above, and a mode below the Chebyshev interval
				// contracts only at exp(acosh((γ−λ)/δ)−acosh(γ/δ)) per
				// iteration — arbitrarily slowly. When several consecutive
				// checks contract worse than 0.8 per CheckEvery
				// iterations, widen the interval downward and restart the
				// recurrence (bounded: each restart discards Chebyshev
				// momentum). Deterministic across ranks: driven entirely
				// by the reduced residual. Well-estimated intervals (the
				// paper's diagonal and EVP configurations) contract ~0.1–
				// 0.3 per check and never trigger this.
				if rn > 0.8*prevRn {
					slowChecks++
				} else {
					slowChecks = 0
				}
				if slowChecks >= 3 && widenings < 6 {
					widenings++
					slowChecks = 0
					nu *= 0.25
					alpha = 2 / (mu - nu)
					beta = (mu + nu) / (mu - nu)
					gamma = beta / alpha
					inv4a2 = 1 / (4 * alpha * alpha)
					omega = 2 / gamma
					traceInterval(r, trace, k, "widen-nu", nu, mu)
				}
				prevRn = rn
				if resilient {
					// Clean check: checkpoint the iterate. Free in the cost
					// model (node-local copy, no communication).
					copyFields(ck, xs)
					if r.ID == 0 {
						res.Recovery.CheckpointIter = k
					}
				}
			}
		}
		if r.ID == 0 {
			res.Iterations = k
			res.Converged = converged
		}
		s.gatherSolution(r, out, xs)
	})
	res.Stats = st
	res.Trace = trace
	s.restoreLand(out, b)
	if cancelled {
		return res, out, ctxSolveErr(ctx, "pcsi", res.Iterations)
	}
	if faulted {
		return res, out, &FaultedError{Solver: "pcsi", Iterations: res.Iterations,
			Restores: res.Recovery.Restores, ReduceRetries: res.Recovery.ReduceRetries}
	}
	if !res.Converged && (math.IsNaN(res.RelResidual) || res.RelResidual > 1e6) {
		return res, out, fmt.Errorf("core: P-CSI diverged; Chebyshev interval [%g, %g] may not bracket the spectrum: %w", nu, mu,
			&NotConvergedError{Solver: "pcsi", Iterations: res.Iterations, RelResidual: res.RelResidual})
	}
	return res, out, nil
}
