package core

import (
	"math"

	"repro/internal/comm"
)

// Composable solver stages. Every Krylov method in this package is built
// from the same handful of per-iteration phases — compute the residual,
// apply the preconditioner, apply the operator, take masked inner products —
// factored here so the five recurrences and the driver assemble the
// identical kernels, with one arithmetic order and one flop accounting (the
// order and size of the AddFlops calls is what the priced virtual clock and
// the golden traces pin). The stages are rank-local: halo exchanges are the
// driver's, between a recurrence's stages.
//
// Every helper takes the whole *comm.Rank handle and runs inside a per-rank
// pass, where no collective may be called (comm panics if one is).
//
// The s-step recurrence adds two stages with no single-vector counterpart:
// the Chebyshev basis build (sstep.go) and the Gram-system assembly, whose
// small dense factorization lives in cholFactor/cholSolve below.

// stageInitResidual computes r = b − A·x blockwise (x must carry valid
// ring-1 halos, as it does immediately after scatterMasked) and returns the
// rank's local ‖b‖² contribution for the b-norm reduction.
func stageInitResidual(r *comm.Rank, rs *rankState, rr, bs, xs [][]float64) float64 {
	var bn2 float64
	for i := range rs.locs {
		residual(rs.locs[i], rr[i], bs[i], xs[i])
		r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
		bn2 += rs.locs[i].MaskedDotInterior(bs[i], bs[i])
		r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
	}
	return bn2
}

// stagePrecond applies dst = M⁻¹·src blockwise.
func stagePrecond(r *comm.Rank, rs *rankState, dst, src [][]float64) {
	for i := range rs.locs {
		rs.pre[i].Apply(dst[i], src[i])
		r.AddFlops(rs.pre[i].ApplyFlops())
	}
}

// stagePrecondDots is stagePrecond plus the rank's local ⟨src, dst⟩ — and
// ⟨src, src⟩ on a check iteration — taken block by block right behind the
// preconditioner, while both operands are still in L1. Only the
// preconditioner is charged here: the callers charge each dot with
// chargeDot at the program point where its separate stageDot sweep used to
// run, so the virtual clock, its noise sequence and the traces do not move.
func stagePrecondDots(r *comm.Rank, rs *rankState, dst, src [][]float64, check bool) (rho, rn float64) {
	for i, loc := range rs.locs {
		rs.pre[i].Apply(dst[i], src[i])
		r.AddFlops(rs.pre[i].ApplyFlops())
		rho += loc.MaskedDotInterior(src[i], dst[i])
		if check {
			rn += loc.MaskedDotInterior(src[i], src[i])
		}
	}
	return rho, rn
}

// chargeDot charges one blockwise masked inner product (see
// stagePrecondDots).
func chargeDot(r *comm.Rank, rs *rankState) {
	for _, loc := range rs.locs {
		r.AddFlops(2 * int64(loc.InteriorLen()))
	}
}

// stageApply applies the operator, dst = A·src; src's halos must be fresh
// (the exchange is the driver's, between a recurrence's stages).
func stageApply(r *comm.Rank, rs *rankState, dst, src [][]float64) {
	for i := range rs.locs {
		rs.locs[i].Apply(dst[i], src[i])
		r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
	}
}

// stageApplyDot applies the operator fused with the inner product: dst =
// A·src, returning the rank's local ⟨src, dst⟩ contribution (one pass over
// the operands instead of a matvec followed by a dot). src's halos must be
// fresh.
func stageApplyDot(r *comm.Rank, rs *rankState, dst, src [][]float64) float64 {
	var d float64
	for i := range rs.locs {
		d += rs.locs[i].ApplyAndMaskedDot(dst[i], src[i])
		r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
		r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
	}
	return d
}

// stageDot returns the rank's local masked inner product ⟨a, b⟩.
func stageDot(r *comm.Rank, rs *rankState, a, b [][]float64) float64 {
	var d float64
	for i := range rs.locs {
		d += rs.locs[i].MaskedDotInterior(a[i], b[i])
		r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
	}
	return d
}

// gatherSolution assembles the rank's blocks of the iterate into the global
// output buffer (the end-of-solve stage every solver shares).
func (s *Session) gatherSolution(r *comm.Rank, out []float64, xs [][]float64) {
	for i, blk := range r.Blocks {
		s.D.GatherInto(out, xs[i], blk)
	}
}

// Small dense symmetric-positive-definite helpers for the s-step Gram
// systems (order ≤ MaxSStep, so n² ≤ 64 doubles — rank-local arithmetic on
// reduced values, identical on every rank by construction).

// gramPivotFloor is the smallest share of its diagonal a Cholesky pivot of a
// Gram matrix may keep: under it, column j's component outside the span of
// the earlier columns is under 1e-4 of its length, i.e. numerically
// dependent. A dependent basis leaves pivots at rounding level (1e-16 to
// 1e-32 of the diagonal); solving through them gave block coefficients of
// 1e15 and a recursive residual that reported convergence 0.74 away from
// the answer. Every pivot of a sound basis on the test, 1° and 0.1°-scaled
// grids keeps more than 1e-4.
const gramPivotFloor = 1e-8

// cholFactor overwrites the lower triangle of the n×n row-major matrix a
// with its Cholesky factor L (a = L·Lᵀ) and reports whether every pivot
// kept more than gramPivotFloor of its diagonal. A smaller pivot means the
// Gram matrix lost positive definiteness (a degenerate or converged basis);
// callers restart the block recurrence rather than divide by it.
func cholFactor(a []float64, n int) bool {
	for j := 0; j < n; j++ {
		d0 := a[j*n+j]
		d := d0
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if !(d > gramPivotFloor*d0) { // also catches NaN and d0 ≤ 0
			return false
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			v := a[i*n+j]
			for k := 0; k < j; k++ {
				v -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = v / d
		}
	}
	return true
}

// cholSolve solves L·Lᵀ·x = b in place on x = b, where l holds the factor
// produced by cholFactor in its lower triangle.
func cholSolve(l []float64, n int, x []float64) {
	for i := 0; i < n; i++ {
		v := x[i]
		for k := 0; k < i; k++ {
			v -= l[i*n+k] * x[k]
		}
		x[i] = v / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		v := x[i]
		for k := i + 1; k < n; k++ {
			v -= l[k*n+i] * x[k]
		}
		x[i] = v / l[i*n+i]
	}
}
