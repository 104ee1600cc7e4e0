package core

import (
	"context"
	"math"

	"repro/internal/comm"
)

// SolvePipeCG runs the pipelined preconditioned conjugate gradient with a
// background context; see SolvePipeCGContext.
func (s *Session) SolvePipeCG(b, x0 []float64) (Result, []float64, error) {
	return s.SolvePipeCGContext(context.Background(), b, x0)
}

// SolvePipeCGContext runs the pipelined preconditioned conjugate gradient
// of Ghysels & Vanroose (the §7 related-work alternative the paper
// contrasts with its own approach): one global reduction per iteration
// like ChronGear, but restructured so the preconditioner application and
// the matrix-vector product overlap with the reduction in flight. The
// virtual runtime prices that overlap through AllReduceOverlap, so this
// solver shows how far latency *hiding* goes compared with P-CSI's latency
// *elimination*.
//
// The price of pipelining is four extra vector recurrences per iteration
// (z, q, s, p alongside x, r, u, w) and the well-known residual drift of
// the longer recurrences; the convergence check still uses the recurrence
// residual, as in the reference algorithm.
//
// Cancellation is observed at convergence-check boundaries only (see the
// session-level cancellation protocol).
func (s *Session) SolvePipeCGContext(ctx context.Context, b, x0 []float64) (Result, []float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Setup(); err != nil {
		return Result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, ctxSolveErr(ctx, "pipecg", 0)
	}
	o := s.Opts
	out := s.solveOut()
	res := Result{Solver: "pipecg", Precond: o.Precond}
	trace := &SolveTrace{
		Residuals: make([]ResidualPoint, 0, o.MaxIters/o.CheckEvery+1)}
	cancelled := false // written by rank 0 only, read after Run

	st := s.W.Run(func(r *comm.Rank) {
		rs := s.state(r)
		nb := len(r.Blocks)
		xs := s.scatterMasked(r, "pcg2.x", x0)
		bs := s.scatterMasked(r, "pcg2.b", b)
		rr := s.field(r, "pcg2.r")
		uu := s.field(r, "pcg2.u")
		ww := s.field(r, "pcg2.w")
		mm := s.field(r, "pcg2.m")
		nn := s.field(r, "pcg2.n")
		zz := s.zeroField(r, "pcg2.z")
		qq := s.zeroField(r, "pcg2.q")
		ss := s.zeroField(r, "pcg2.s")
		pp := s.zeroField(r, "pcg2.p")
		// Reduction payload reused by every collective in this program —
		// hoisted so the steady-state loop allocates nothing. Checks append
		// the residual norm and the cancellation flag.
		payload := make([]float64, 4)

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

		// u₀ = M⁻¹r₀, w₀ = A·u₀.
		stagePrecond(r, rs, uu, rr)
		stageMatvec(r, rs, ww, uu)

		gammaPrev, alphaPrev := 0.0, 0.0
		converged := false
		k := 0
		for k < o.MaxIters {
			k++
			check := k%o.CheckEvery == 0
			var gL, dL, rnL float64
			var overlapFlops int64
			for i := 0; i < nb; i++ {
				loc := rs.locs[i]
				n := int64(loc.InteriorLen())
				gL += loc.MaskedDotInterior(rr[i], uu[i])
				dL += loc.MaskedDotInterior(ww[i], uu[i])
				r.AddFlops(4 * n)
				if check {
					rnL += loc.MaskedDotInterior(rr[i], rr[i])
					r.AddFlops(2 * n)
				}
				overlapFlops += rs.pre[i].ApplyFlops() + 9*n
			}
			payload[0], payload[1] = gL, dL
			p := payload[:2]
			if check {
				payload[2] = rnL
				payload[3] = cancelFlag(ctx)
				p = payload[:4]
			}
			// The reduction flies while m = M⁻¹w and n = A·m compute. The
			// reduced values are consumed immediately: the result slice is
			// the rank's pooled buffer, valid only until its next collective
			// (the Exchange below).
			g := r.AllReduceOverlap(p, overlapFlops)
			gamma, delta := g[0], g[1]
			var rn2, cancelSum float64
			if check {
				rn2, cancelSum = g[2], g[3]
			}
			for i := 0; i < nb; i++ {
				rs.pre[i].Apply(mm[i], ww[i])
			}
			r.Exchange(mm)
			for i := 0; i < nb; i++ {
				rs.locs[i].Apply(nn[i], mm[i])
			}

			if check {
				rn := math.Sqrt(rn2)
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
				if cancelSum != 0 { // some rank saw ctx done — all stop here
					if r.ID == 0 {
						cancelled = true
					}
					break
				}
			}
			var beta, alpha float64
			if k == 1 {
				beta, alpha = 0, gamma/delta
			} else {
				beta = gamma / gammaPrev
				alpha = gamma / (delta - beta*gamma/alphaPrev)
			}
			gammaPrev, alphaPrev = gamma, alpha
			for i := 0; i < nb; i++ {
				loc := rs.locs[i]
				// p = u + βp, x += αp and s = w + βs, r −= αs first: they read
				// the u and w that the second pass then overwrites with
				// q = m + βq, u −= αq and z = n + βz, w −= αz.
				fusedUpdate(loc, pp[i], uu[i], xs[i], ss[i], ww[i], rr[i], beta, alpha, -alpha)
				fusedUpdate(loc, qq[i], mm[i], uu[i], zz[i], nn[i], ww[i], beta, -alpha, -alpha)
				r.AddFlops(8 * int64(loc.InteriorLen()))
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
		return res, out, ctxSolveErr(ctx, "pipecg", res.Iterations)
	}
	if !res.Converged && math.IsNaN(res.RelResidual) {
		return res, out, &NotConvergedError{Solver: "pipecg", Iterations: res.Iterations, RelResidual: res.RelResidual}
	}
	return res, out, nil
}
