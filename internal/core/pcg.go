package core

import (
	"context"
	"math"

	"repro/internal/comm"
)

// SolvePCG runs the classic preconditioned conjugate gradient method with
// a background context; see SolvePCGContext.
func (s *Session) SolvePCG(b, x0 []float64) (Result, []float64, error) {
	return s.SolvePCGContext(context.Background(), b, x0)
}

// SolvePCGContext runs the classic preconditioned conjugate gradient
// method — the textbook formulation POP used before ChronGear, kept as the
// baseline that shows why merging its *two* global reductions per
// iteration into one (ChronGear) and then into none (P-CSI) matters at
// scale. Cancellation is observed at convergence-check boundaries only
// (see the session-level cancellation protocol).
func (s *Session) SolvePCGContext(ctx context.Context, b, x0 []float64) (Result, []float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Setup(); err != nil {
		return Result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, ctxSolveErr(ctx, "pcg", 0)
	}
	o := s.Opts
	out := s.solveOut()
	res := Result{Solver: "pcg", Precond: o.Precond}
	trace := &SolveTrace{
		Residuals: make([]ResidualPoint, 0, o.MaxIters/o.CheckEvery+1)}
	cancelled := false // written by rank 0 only, read after Run

	st := s.W.Run(func(r *comm.Rank) {
		rs := s.state(r)
		nb := len(r.Blocks)
		xs := s.scatterMasked(r, "pcg.x", x0)
		bs := s.scatterMasked(r, "pcg.b", b)
		rr := s.field(r, "pcg.r")
		rp := s.field(r, "pcg.rp")
		zz := s.field(r, "pcg.z")
		pp := s.zeroField(r, "pcg.p")
		// Reduction payload reused by every collective in this program —
		// hoisted so the steady-state loop allocates nothing. Checks append
		// the residual norm and the cancellation flag.
		payload := make([]float64, 3)

		payload[0] = stageInitResidual(r, rs, rr, bs, xs)
		bnorm := math.Sqrt(r.AllReduce(payload[:1])[0])
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

		rhoPrev := 0.0
		converged := false
		k := 0
		for k < o.MaxIters {
			k++
			check := k%o.CheckEvery == 0
			// r' = M⁻¹r with ρ = ⟨r, r'⟩ (and the check's ⟨r, r⟩) behind it.
			rhoL, rnL := stagePrecondDots(r, rs, rp, rr, check)
			chargeDot(r, rs)
			payload[0] = rhoL
			rho := r.AllReduce(payload[:1])[0] // reduction 1 of 2
			if k == 1 {
				for i := 0; i < nb; i++ {
					copy(pp[i], rp[i])
				}
			} else {
				beta := rho / rhoPrev
				for i := 0; i < nb; i++ {
					xpay(rs.locs[i], pp[i], rp[i], beta)
					r.AddFlops(int64(rs.locs[i].InteriorLen()))
				}
			}
			rhoPrev = rho
			// z = B·p fused with δ = ⟨p, z⟩ (halo refresh inside).
			deltaL := stageFusedMatvecDot(r, rs, zz, pp)
			if check {
				chargeDot(r, rs) // ⟨r, r⟩
			}
			payload[0] = deltaL
			p := payload[:1]
			if check {
				payload[1] = rnL
				payload[2] = cancelFlag(ctx)
				p = payload[:3]
			}
			g := r.AllReduce(p) // reduction 2 of 2
			alpha := rho / g[0]
			if check {
				rn := math.Sqrt(g[1])
				if r.ID == 0 {
					res.RelResidual = rn / bnorm
				}
				traceResidual(r, trace, k, rn/bnorm)
				if rn <= target {
					converged = true
					break
				}
				if math.IsNaN(rn) { // reduced, so every rank leaves here
					break
				}
				if g[2] != 0 { // some rank saw ctx done — all ranks stop here
					if r.ID == 0 {
						cancelled = true
					}
					break
				}
			}
			for i := 0; i < nb; i++ {
				loc := rs.locs[i]
				axpy2(loc, xs[i], pp[i], alpha, rr[i], zz[i], -alpha) // x += αp, r −= αz
				r.AddFlops(2 * int64(loc.InteriorLen()))
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
		return res, out, ctxSolveErr(ctx, "pcg", res.Iterations)
	}
	if !res.Converged && math.IsNaN(res.RelResidual) {
		return res, out, &NotConvergedError{Solver: "pcg", Iterations: res.Iterations, RelResidual: res.RelResidual}
	}
	return res, out, nil
}
