package core

import "repro/internal/stencil"

// Block-level vector kernels. All operate on the interior of padded arrays
// and are charged with the paper's flop accounting (§2.2): one unit per
// point per vector operation, two per masked inner product, nine per
// stencil application — so the Session's virtual times reproduce the
// coefficients of Equations 2/3/5/6 by construction.
//
// Inner loops run over per-row slice windows of one common length so the
// compiler's prove pass eliminates the bounds checks (same idiom as
// stencil.Local.Apply; verify.sh holds residual's row loop to it with
// go build -gcflags=-d=ssa/check_bce).

// residual computes r = b − A·x on the interior (fused; charged as one
// stencil application). x must have valid ring-1 halos.
//
//pop:hotpath
func residual(loc *stencil.Local, r, b, x []float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		rr := r[lo:][:n]
		br := b[lo:][:n]
		xc := x[lo:][:n]
		xn := x[lo+nx:][:n]
		xs := x[lo-nx:][:n]
		xe := x[lo+1:][:n]
		xw := x[lo-1:][:n]
		xne := x[lo+nx+1:][:n]
		xse := x[lo-nx+1:][:n]
		xnw := x[lo+nx-1:][:n]
		xsw := x[lo-nx-1:][:n]
		ac := loc.AC[lo:][:n]
		an := loc.AN[lo:][:n]
		ans := loc.AN[lo-nx:][:n]
		ae := loc.AE[lo:][:n]
		aw := loc.AE[lo-1:][:n]
		ane := loc.ANE[lo:][:n]
		anes := loc.ANE[lo-nx:][:n]
		anew := loc.ANE[lo-1:][:n]
		anesw := loc.ANE[lo-nx-1:][:n]
		for i := range rr {
			rr[i] = br[i] - (ac[i]*xc[i] +
				an[i]*xn[i] + ans[i]*xs[i] +
				ae[i]*xe[i] + aw[i]*xw[i] +
				ane[i]*xne[i] + anes[i]*xse[i] +
				anew[i]*xnw[i] + anesw[i]*xsw[i])
		}
	}
}

// xpay computes dst = x + a·dst on the interior (ChronGear's s/p updates).
//
//pop:hotpath
func xpay(loc *stencil.Local, dst, x []float64, a float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		dr := dst[lo:][:n]
		xr := x[lo:][:n]
		for i := range dr {
			dr[i] = xr[i] + a*dr[i]
		}
	}
}

// axpy computes dst += a·x on the interior.
//
//pop:hotpath
func axpy(loc *stencil.Local, dst, x []float64, a float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		dr := dst[lo:][:n]
		xr := x[lo:][:n]
		for i := range dr {
			dr[i] += a * xr[i]
		}
	}
}

// chebBasisFirst computes dst = invDelta·(w − γ·v) on the interior — the
// first Chebyshev basis step of the s-step solver, v₁ = T₁ of the mapped
// operator applied to v₀ (charged as two vector operations).
//
//pop:hotpath
func chebBasisFirst(loc *stencil.Local, dst, w, v []float64, gamma, invDelta float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		dr := dst[lo:][:n]
		wr := w[lo:][:n]
		vr := v[lo:][:n]
		for i := range dr {
			dr[i] = invDelta * (wr[i] - gamma*vr[i])
		}
	}
}

// chebBasisNext computes dst = twoInvDelta·(w − γ·v) − u on the interior —
// the three-term Chebyshev recurrence vⱼ₊₁ = (2/δ)(M⁻¹A·vⱼ − γ·vⱼ) − vⱼ₋₁
// that keeps the s-step basis well-conditioned (charged as three vector
// operations).
//
//pop:hotpath
func chebBasisNext(loc *stencil.Local, dst, w, v, u []float64, gamma, twoInvDelta float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		dr := dst[lo:][:n]
		wr := w[lo:][:n]
		vr := v[lo:][:n]
		ur := u[lo:][:n]
		for i := range dr {
			dr[i] = twoInvDelta*(wr[i]-gamma*vr[i]) - ur[i]
		}
	}
}

// chebStep advances P-CSI one step in a single pass over the interior:
// dx = ω·rp + c·dx, then x += dx (Algorithm 2 lines 7–8; charged as three
// vector operations).
//
//pop:hotpath
func chebStep(loc *stencil.Local, x, dx, rp []float64, omega, c float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		xr := x[lo:][:n]
		dr := dx[lo:][:n]
		rr := rp[lo:][:n]
		for i := range dr {
			d := omega*rr[i] + c*dr[i]
			dr[i] = d
			xr[i] += d
		}
	}
}
