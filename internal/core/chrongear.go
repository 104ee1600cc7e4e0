package core

import (
	"context"
	"math"

	"repro/internal/comm"
)

// SolveChronGear runs the Chronopoulos–Gear solver with a background
// context; see SolveChronGearContext.
func (s *Session) SolveChronGear(b, x0 []float64) (Result, []float64, error) {
	return s.SolveChronGearContext(context.Background(), b, x0)
}

// SolveChronGearContext runs the Chronopoulos–Gear solver (paper Algorithm
// 1): POP's production barotropic solver, a PCG variant whose two inner
// products share a single global reduction per iteration. The convergence
// residual rides along that reduction every CheckEvery iterations, so no
// extra communication is spent on checking.
//
// b and x0 are global fields; the returned slice is the solution (x0 is
// not modified). Boundary halos are refreshed on the preconditioned
// residual, which keeps one halo update per iteration for any
// preconditioner.
//
// Cancellation is observed at convergence-check boundaries only (see the
// session-level cancellation protocol); a cancelled solve returns the
// current iterate together with an error matching ctx.Err().
func (s *Session) SolveChronGearContext(ctx context.Context, b, x0 []float64) (Result, []float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Setup(); err != nil {
		return Result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, ctxSolveErr(ctx, "chrongear", 0)
	}
	o := s.Opts
	out := s.solveOut()
	res := Result{Solver: "chrongear", Precond: o.Precond}
	trace := &SolveTrace{
		Residuals: make([]ResidualPoint, 0, o.MaxIters/o.CheckEvery+1)}
	cancelled := false // written by rank 0 only, read after Run
	faulted := false   // written by rank 0 only, read after Run

	// Resilient mode runs only under an active fault injector; otherwise
	// every branch below reduces to the legacy path (see internal/core
	// resilient.go for the protocol).
	inj := s.W.Faults
	resilient := inj.Enabled() && o.MaxRecoveries >= 0

	st := s.W.Run(func(r *comm.Rank) {
		rs := s.state(r)
		nb := len(r.Blocks)
		xs := s.scatterMasked(r, "cg.x", x0)
		bs := s.scatterMasked(r, "cg.b", b)
		rr := s.field(r, "cg.r")
		rp := s.field(r, "cg.rp")
		zz := s.field(r, "cg.z")
		ss := s.zeroField(r, "cg.s")
		pp := s.zeroField(r, "cg.p")
		// ck is the iteration-state checkpoint (a copy of x at the last
		// clean convergence check), maintained only in resilient mode.
		var ck [][]float64
		if resilient {
			ck = s.field(r, "cg.ckpt")
		}
		// Reduction payload reused by every collective in this program
		// (sliced to 2–5 entries per call) — hoisted so the steady-state
		// loop allocates nothing. Checks append the residual norm, the
		// cancellation flag, and (in resilient mode) the crash flag.
		payload := make([]float64, 5)

		// r₀ = b − B·x₀ (halos valid from scatter) and ‖b‖².
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
			gsum := r.AllReduce(payload[:1])
			bnorm = math.Sqrt(gsum[0])
		}
		if r.ID == 0 {
			res.BNorm = bnorm
		}
		if bnorm == 0 {
			// x = 0 solves the masked system exactly.
			s.zeroSolutionExit(r, out, xs)
			if r.ID == 0 {
				res.Converged = true
			}
			return
		}
		target := o.Tol * bnorm
		if resilient {
			// Initial checkpoint: x₀ with valid halos from the scatter.
			copyFields(ck, xs)
		}

		rhoPrev, sigmaPrev := 1.0, 0.0
		converged := false
		restores := 0 // identical on every rank: driven by reduced verdicts
		// Stagnation tripwire state (resilient mode only; driven by the
		// reduced check norm, so identical on every rank).
		bestRn := math.Inf(1)
		stall := 0
		k := 0
		for k < o.MaxIters {
			k++
			check := k%o.CheckEvery == 0
			// r' = M⁻¹r with ρ = ⟨r, r'⟩ (and the check's ⟨r, r⟩) behind it.
			rhoL, rnL := stagePrecondDots(r, rs, rp, rr, check)
			if check {
				chargeDot(r, rs)
			}
			// z = B·r' fused with δ = ⟨z, r'⟩ — one pass over the operands,
			// with the iteration's one boundary update inside.
			deltaL := stageFusedMatvecDot(r, rs, zz, rp)
			chargeDot(r, rs) // ρ
			payload[0], payload[1] = rhoL, deltaL
			p := payload[:2]
			crashed := false
			if check {
				payload[2] = rnL
				payload[3] = cancelFlag(ctx)
				p = payload[:4]
				if resilient {
					// Crash verdicts ride the check reduction (see the
					// session cancellation protocol): every rank learns from
					// the reduced sum whether anyone crashed and enters the
					// rollback below in lockstep.
					crashed = inj.CrashRank(r.ID, r.ReduceSeq())
					payload[4] = 0
					if crashed {
						payload[4] = 1
					}
					p = payload[:5]
				}
			}
			var g []float64
			if resilient {
				var nret int
				var ok bool
				g, nret, ok = reduceRetry(r, inj, p) // the single global reduction
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
				g = r.AllReduce(p) // the single global reduction
			}
			rho, delta := g[0], g[1]
			if check {
				rn := math.Sqrt(g[2])
				if r.ID == 0 {
					res.RelResidual = rn / bnorm
				}
				traceResidual(r, trace, k, rn/bnorm)
				doRestore := false
				if resilient && g[4] != 0 {
					// A rank crashed this interval; its iterate is lost. The
					// crash preempts a simultaneous convergence verdict.
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
					// Confirm on fresh halos before trusting the verdict
					// (ChronGear's x halos are never refreshed mid-solve, and
					// its residual is maintained recursively — both go stale
					// under dropped or corrupted halo exchanges).
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
						// False convergence: restart the CG recurrence from
						// the current iterate (r was just recomputed above).
						for i := 0; i < nb; i++ {
							for idx := range ss[i] {
								ss[i][idx] = 0
							}
							for idx := range pp[i] {
								pp[i][idx] = 0
							}
						}
						rhoPrev, sigmaPrev = 1.0, 0.0
						bestRn = math.Inf(1)
						stall = 0
						traceRecover(r, k, recKindReconverge)
						if r.ID == 0 {
							res.Recovery.Reconverges++
							inj.Recovered("reconverge")
						}
						continue
					}
				} else if resilient && math.IsNaN(rn) {
					doRestore = true // NaN tripwire
				} else if resilient {
					// Silent-corruption tripwire: the recursive norm stopped
					// improving (see cgStallChecks).
					if rn < 0.999*bestRn {
						bestRn = rn
						stall = 0
					} else {
						stall++
						if stall >= cgStallChecks {
							doRestore = true
						}
					}
				}
				if g[3] != 0 { // some rank saw ctx done — all ranks stop here
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
					// Collective rollback: restore the checkpoint, refresh
					// halos, recompute the residual from scratch, and restart
					// the CG recurrence (zeroed s and p make the first beta
					// irrelevant, exactly like the initial iteration).
					copyFields(xs, ck)
					r.Exchange(xs)
					for i := 0; i < nb; i++ {
						residual(rs.locs[i], rr[i], bs[i], xs[i])
						r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
						for idx := range ss[i] {
							ss[i][idx] = 0
						}
						for idx := range pp[i] {
							pp[i][idx] = 0
						}
					}
					rhoPrev, sigmaPrev = 1.0, 0.0
					bestRn = math.Inf(1)
					stall = 0
					traceRecover(r, k, recKindRestore)
					if r.ID == 0 {
						res.Recovery.Restores++
						inj.Recovered("restore")
					}
					continue
				}
				if resilient && stall == 0 {
					// Improving check: checkpoint the iterate (free in the
					// cost model — node-local copy). Stalled checks don't
					// checkpoint: a quietly inconsistent recursion may have
					// walked x away from the solution since the last
					// improvement.
					copyFields(ck, xs)
					if r.ID == 0 {
						res.Recovery.CheckpointIter = k
					}
				}
			}
			beta := rho / rhoPrev
			sigma := delta - beta*beta*sigmaPrev
			alpha := rho / sigma
			rhoPrev, sigmaPrev = rho, sigma
			for i := 0; i < nb; i++ {
				loc := rs.locs[i]
				// s = r' + βs, x += αs and p = z + βp, r −= αp in one pass.
				fusedUpdate(loc, ss[i], rp[i], xs[i], pp[i], zz[i], rr[i], beta, alpha, -alpha)
				r.AddFlops(4 * int64(loc.InteriorLen()))
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
		return res, out, ctxSolveErr(ctx, "chrongear", res.Iterations)
	}
	if faulted {
		return res, out, &FaultedError{Solver: "chrongear", Iterations: res.Iterations,
			Restores: res.Recovery.Restores, ReduceRetries: res.Recovery.ReduceRetries}
	}
	return res, out, nil
}
