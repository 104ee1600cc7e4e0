package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"repro/internal/comm"
)

// Communication-avoiding s-step PCG with a Chebyshev basis.
//
// ChronGear pays one global reduction per iteration and P-CSI removes inner
// products but still reduces every CheckEvery iterations; the s-step solver
// attacks the reduction *cadence* directly (ROADMAP item 1, after D'Ambra
// et al.): each outer block builds s preconditioned matrix-vector products —
// s halo exchanges, zero reductions — then assembles every inner product the
// next s CG iterations need into ONE fused AllReduce, solves the small Gram
// system rank-locally, and advances x and r by the block recurrence. A
// converged solve therefore performs exactly ceil(iters/s)+1 global
// reductions (the +1 is the final block whose entering residual proves
// convergence; ‖b‖² rides the first reduction rather than paying its own).
//
// The monomial basis [M⁻¹r, (M⁻¹A)M⁻¹r, …] loses linear independence in
// floating point by s ≈ 4; the basis here is the scaled-and-shifted
// Chebyshev recurrence over the session's Lanczos spectrum estimate [ν, μ]
// (the same estimate P-CSI irons its iteration with), which keeps the Gram
// matrix well-conditioned through MaxSStep. Basis-degeneracy is still
// detected — a Cholesky pivot loss in the Gram factorization — and answered
// by restarting the block recurrence (dropping the previous direction
// block), never by dividing through a bad pivot.
//
// The recurrence follows Chronopoulos & Gear: with V the basis block,
// Q = A·V, and P_prev the previous direction block with W_prev = P_prevᵀAP_prev,
//
//	B = −W_prev⁻¹·C       where C[i][j] = ⟨A·p_i, v_j⟩
//	P  = V + P_prev·B      (A-orthogonal to P_prev)
//	W  = G + BᵀC + CᵀB + BᵀW_prev·B   where G[i][j] = ⟨v_i, A·v_j⟩
//	a  = W⁻¹·m             where m[i] = ⟨v_i, r⟩  (P_prevᵀr = 0 exactly)
//	x += P·a,  r −= (A·P)·a
//
// All dense arithmetic runs on *reduced* values, so it is bit-identical on
// every rank by construction — no rank-local verdict ever steers a
// collective (the collectivelockstep contract).

// MaxSStep is the largest supported s-step block size. Sixteen is far past
// the practical crossover (the Gram assembly's s² dots and the block
// update's s² axpys overtake the saved reduction latency well before), but
// the field tables and payload widths are sized for it so experiments can
// probe the downslope.
const MaxSStep = 16

// DefaultSStep is the block size a zero Options.SStep selects — the one
// definition the serve pool's key normalizer shares, so a pool label can
// never disagree with the session it names.
const DefaultSStep = 4

// Per-direction field names, precomputed so the solve loop never builds a
// string (the session field map is keyed by name).
var sstepVName, sstepQName, sstepPName, sstepAName [MaxSStep]string

func init() {
	for j := 0; j < MaxSStep; j++ {
		sstepVName[j] = "sstep.v" + strconv.Itoa(j)
		sstepQName[j] = "sstep.q" + strconv.Itoa(j)
		sstepPName[j] = "sstep.p" + strconv.Itoa(j)
		sstepAName[j] = "sstep.ap" + strconv.Itoa(j)
	}
}

// SolveSStep runs the communication-avoiding s-step PCG with a background
// context; see SolveSStepContext.
func (s *Session) SolveSStep(b, x0 []float64) (Result, []float64, error) {
	return s.SolveSStepContext(context.Background(), b, x0)
}

// SolveSStepContext runs the communication-avoiding s-step PCG: blocks of
// Options.SStep Chebyshev-basis matrix-vector products between single fused
// global reductions, so a converged solve performs at most
// ceil(Iterations/SStep)+1 reductions. The Chebyshev basis interval comes
// from the Session's eigenvalue estimates; when absent, EstimateEigenvalues
// runs first (charged to the Session's EigenStats, exactly as for P-CSI).
//
// Convergence is checked on each block's *entering* residual — the check
// rides the block's one mandatory reduction, so detection lags the true
// convergence point by up to s−1 iterations but costs zero extra
// communication. Cancellation likewise rides the block reduction.
//
// The solver runs the legacy (non-resilient) path even under an active
// fault injector: the resilience ladder covers the per-iteration solvers,
// and SOLVERS.md records the gap.
func (s *Session) SolveSStepContext(ctx context.Context, b, x0 []float64) (Result, []float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Setup(); err != nil {
		return Result{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, nil, ctxSolveErr(ctx, "sstep", 0)
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
	sv := o.SStep
	out := s.solveOut()
	res := Result{Solver: "sstep", Precond: o.Precond, Nu: s.Nu, Mu: s.Mu, EigSteps: s.EigSteps}
	trace := &SolveTrace{EigBounds: s.EigTrace,
		Residuals: make([]ResidualPoint, 0, o.MaxIters/sv+1)}
	cancelled := false // written by rank 0 only, read after Run

	// Chebyshev basis parameters: centre γ and half-width δ of [ν, μ].
	gamma := (s.Mu + s.Nu) / 2
	delta := (s.Mu - s.Nu) / 2
	invDelta := 1 / delta
	twoInvDelta := 2 / delta

	// Fused reduction payload layout (one AllReduce per block):
	//   [offG  : offG+nG)   upper triangle of G, row-major, G[i][j]=⟨v_i,q_j⟩
	//   [offC  : offC+s²)   C[i][j] = ⟨A·p_i, v_j⟩ (zero on the first block)
	//   [offM  : offM+s)    m[i] = ⟨v_i, r⟩
	//   [offRn]             ‖r‖² entering the block (the convergence check)
	//   [offBn]             ‖b‖² (first block only; rides along, no own reduce)
	//   [offCancel]         cancellation flag sum
	nG := sv * (sv + 1) / 2
	offC := nG
	offM := offC + sv*sv
	offRn := offM + sv
	offBn := offRn + 1
	offCancel := offBn + 1
	width := offCancel + 1

	st := s.W.Run(func(r *comm.Rank) {
		rs := s.state(r)
		nb := len(r.Blocks)
		xs := s.scatterMasked(r, "sstep.x", x0)
		bs := s.scatterMasked(r, "sstep.b", b)
		rr := s.field(r, "sstep.r")
		ww := s.field(r, "sstep.w")
		// Direction-block field groups. vv/qq double as the basis (V, Q=AV)
		// during the build and as the *next* P/AP during the update — the
		// update writes P = V + P_prev·B into the vv slots, then the slices
		// swap, so no block-sized copies happen anywhere in the loop.
		vv := make([][][]float64, sv)
		qq := make([][][]float64, sv)
		pp := make([][][]float64, sv)
		aps := make([][][]float64, sv)
		for j := 0; j < sv; j++ {
			vv[j] = s.field(r, sstepVName[j])
			qq[j] = s.field(r, sstepQName[j])
			pp[j] = s.field(r, sstepPName[j])
			aps[j] = s.field(r, sstepAName[j])
		}
		payload := make([]float64, width)
		// Dense rank-local scratch for the (s×s) Gram arithmetic; tiny
		// (≤ MaxSStep² doubles each) and identical on every rank because it
		// is computed from reduced values only.
		gm := make([]float64, sv*sv) // G
		cm := make([]float64, sv*sv) // C
		bm := make([]float64, sv*sv) // B
		um := make([]float64, sv*sv) // W_prev·B
		tm := make([]float64, sv*sv) // W_new accumulator
		wPrev := make([]float64, sv*sv)
		wFac := make([]float64, sv*sv)
		mvec := make([]float64, sv)
		avec := make([]float64, sv)
		col := make([]float64, sv)

		bn2 := stageInitResidual(r, rs, rr, bs, xs)

		var bnorm, target float64
		first := true
		converged := false
		// Stagnation watch state; all derived from reduced values, so
		// lockstep on every rank.
		bestRn := math.Inf(1)
		stall := 0
		replaced := false
		forceRestart := false
		k := 0
		for {
			if k >= o.MaxIters {
				break
			}
			// Basis build: v₀ = M⁻¹r, then the Chebyshev three-term
			// recurrence on the preconditioned operator. s halo exchanges
			// (inside stageMatvec), zero reductions.
			stagePrecond(r, rs, vv[0], rr)
			for j := 0; j < sv; j++ {
				stageMatvec(r, rs, qq[j], vv[j])
				if j+1 < sv {
					stagePrecond(r, rs, ww, qq[j])
					for i := 0; i < nb; i++ {
						loc := rs.locs[i]
						if j == 0 {
							chebBasisFirst(loc, vv[1][i], ww[i], vv[0][i], gamma, invDelta)
							r.AddFlops(2 * int64(loc.InteriorLen()))
						} else {
							chebBasisNext(loc, vv[j+1][i], ww[i], vv[j][i], vv[j-1][i], gamma, twoInvDelta)
							r.AddFlops(3 * int64(loc.InteriorLen()))
						}
					}
				}
			}
			// Gram assembly: every inner product the block recurrence needs,
			// packed into the one payload.
			idx := 0
			for i := 0; i < sv; i++ {
				for j := i; j < sv; j++ {
					payload[idx] = stageDot(r, rs, vv[i], qq[j])
					idx++
				}
			}
			if first {
				for i := offC; i < offM; i++ {
					payload[i] = 0
				}
			} else {
				for i := 0; i < sv; i++ {
					for j := 0; j < sv; j++ {
						payload[offC+i*sv+j] = stageDot(r, rs, aps[i], vv[j])
					}
				}
			}
			for i := 0; i < sv; i++ {
				payload[offM+i] = stageDot(r, rs, vv[i], rr)
			}
			payload[offRn] = stageDot(r, rs, rr, rr)
			payload[offBn] = 0
			if first {
				payload[offBn] = bn2
			}
			payload[offCancel] = cancelFlag(ctx)
			g := r.AllReduce(payload) // the block's ONLY reduction

			rn := math.Sqrt(g[offRn])
			if first {
				bnorm = math.Sqrt(g[offBn])
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
				target = o.Tol * bnorm
			}
			if r.ID == 0 {
				res.RelResidual = rn / bnorm
			}
			traceResidual(r, trace, k, rn/bnorm)
			if rn <= target {
				converged = true
				break
			}
			if math.IsNaN(rn) {
				break
			}
			if g[offCancel] != 0 { // some rank saw ctx done — all stop here
				if r.ID == 0 {
					cancelled = true
				}
				break
			}

			// Stagnation watch on the reduced entering residual. The block
			// recurrence's attainable accuracy is bounded by the basis
			// conditioning: in finite precision the recurrence residual
			// drifts from b − A·x and can plateau above the target (seen at
			// s=8 with the diagonal preconditioner on warm-started model
			// steps). The watch arms only near the round-off floor
			// (rel residual ≤ 1e-6) — far from it, a non-improving block is
			// ordinary non-monotone CG behaviour, not drift. Sixteen
			// stalled iterations (counted in iterations, not blocks, so the
			// patience is the same at every s) trigger a residual
			// replacement — recompute the true residual and restart the
			// recurrence from it (van der Vorst-style reliable updates; s+1
			// halo'd matvecs, zero extra reductions, and k still advances
			// so the ceil(iters/s)+1 reduction bound holds) — and when even
			// the replaced residual cannot improve across another sixteen,
			// the solve gives up rather than spinning to MaxIters.
			if rn < 0.99*bestRn {
				bestRn = rn
				stall = 0
				replaced = false
			} else if rn <= 1e-6*bnorm {
				stall += sv
				if stall >= 16 {
					if replaced {
						break
					}
					r.Exchange(xs)
					for i := 0; i < nb; i++ {
						loc := rs.locs[i]
						residual(loc, rr[i], bs[i], xs[i])
						r.AddFlops(9 * int64(loc.InteriorLen()))
					}
					replaced = true
					forceRestart = true
					stall = 0
					k += sv // this block's basis matvecs were spent
					continue
				}
			}

			// Unpack the reduced Gram system before the next collective (g
			// is the communicator's pooled buffer, valid only until then).
			idx = 0
			for i := 0; i < sv; i++ {
				for j := i; j < sv; j++ {
					gm[i*sv+j] = g[idx]
					gm[j*sv+i] = g[idx]
					idx++
				}
			}
			copy(cm, g[offC:offM])
			copy(mvec, g[offM:offRn])

			// Block recurrence on reduced values: rank-local, identical on
			// every rank. A failed Cholesky factorization of W_new means the
			// previous direction block has degenerated — restart the
			// recurrence (P = V, W = G) rather than divide through it.
			restart := first || forceRestart
			forceRestart = false
			if !restart {
				for j := 0; j < sv; j++ { // B = −W_prev⁻¹·C, column by column
					for i := 0; i < sv; i++ {
						col[i] = cm[i*sv+j]
					}
					cholSolve(wFac, sv, col)
					for i := 0; i < sv; i++ {
						bm[i*sv+j] = -col[i]
					}
				}
				for i := 0; i < sv; i++ { // um = W_prev·B
					for j := 0; j < sv; j++ {
						var v float64
						for l := 0; l < sv; l++ {
							v += wPrev[i*sv+l] * bm[l*sv+j]
						}
						um[i*sv+j] = v
					}
				}
				for i := 0; i < sv; i++ { // W_new = G + BᵀC + CᵀB + Bᵀ(W_prev·B)
					for j := 0; j < sv; j++ {
						v := gm[i*sv+j]
						for l := 0; l < sv; l++ {
							v += bm[l*sv+i]*cm[l*sv+j] + cm[l*sv+i]*bm[l*sv+j] + bm[l*sv+i]*um[l*sv+j]
						}
						tm[i*sv+j] = v
					}
				}
				copy(wFac, tm)
				if cholFactor(wFac, sv) {
					copy(wPrev, tm)
				} else {
					restart = true
				}
			}
			if restart {
				copy(wFac, gm)
				if !cholFactor(wFac, sv) {
					// Even the fresh basis is degenerate (r at rounding level
					// or non-finite) — no further progress is possible.
					break
				}
				copy(wPrev, gm)
				pp, vv = vv, pp // P = V, AP = Q (slice-header swap, no copy)
				aps, qq = qq, aps
			} else {
				for j := 0; j < sv; j++ { // P = V + P_prev·B into the vv slots
					for i := 0; i < sv; i++ {
						c := bm[i*sv+j]
						for blk := 0; blk < nb; blk++ {
							loc := rs.locs[blk]
							axpy2(loc, vv[j][blk], pp[i][blk], c, qq[j][blk], aps[i][blk], c)
							r.AddFlops(2 * int64(loc.InteriorLen()))
						}
					}
				}
				pp, vv = vv, pp
				aps, qq = qq, aps
			}

			copy(avec, mvec) // a = W⁻¹·m
			cholSolve(wFac, sv, avec)
			for j := 0; j < sv; j++ { // x += P·a, r −= (A·P)·a
				for blk := 0; blk < nb; blk++ {
					loc := rs.locs[blk]
					axpy2(loc, xs[blk], pp[j][blk], avec[j], rr[blk], aps[j][blk], -avec[j])
					r.AddFlops(2 * int64(loc.InteriorLen()))
				}
			}
			k += sv
			first = false
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
		return res, out, ctxSolveErr(ctx, "sstep", res.Iterations)
	}
	if !res.Converged && (math.IsNaN(res.RelResidual) || res.RelResidual > 1e6) {
		return res, out, fmt.Errorf("core: s-step PCG diverged; Chebyshev basis interval [%g, %g] may not bracket the spectrum: %w", s.Nu, s.Mu,
			&NotConvergedError{Solver: "sstep", Iterations: res.Iterations, RelResidual: res.RelResidual})
	}
	return res, out, nil
}
