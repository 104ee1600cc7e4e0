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
	n := nx - 2*h + 2
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h - 1
		rr := r[lo:][:n]
		br := b[lo:][:n]
		xc := x[lo:][:n]
		xn := x[lo+nx:][:n]
		xs := x[lo-nx:][:n]
		ac := loc.AC[lo:][:n]
		an := loc.AN[lo:][:n]
		ans := loc.AN[lo-nx:][:n]
		ae := loc.AE[lo:][:n]
		ane := loc.ANE[lo:][:n]
		anes := loc.ANE[lo-nx:][:n]
		for e := 2; e < len(xc); e++ {
			i, w := e-1, e-2
			rr[i] = br[i] - (ac[i]*xc[i] +
				an[i]*xn[i] + ans[i]*xs[i] +
				ae[i]*xc[e] + ae[w]*xc[w] +
				ane[i]*xn[e] + anes[i]*xs[e] +
				ane[w]*xn[w] + anes[w]*xs[w])
		}
	}
}

// xpay computes dst = x + a·dst on the interior (the direction update of
// PCG and Lanczos, whose iterate update waits on a reduction).
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

// fusedUpdate advances two direction/iterate pairs in one pass over the
// interior: d1 = x1 + β·d1, y1 += a1·d1 and d2 = x2 + β·d2, y2 += a2·d2 —
// ChronGear's s/x and p/r updates, which were four separate xpay/axpy
// sweeps. Every element sees the arithmetic of xpay
// followed by axpy, so the fusion is bitwise invisible; it is still charged
// as four vector operations.
//
//pop:hotpath
func fusedUpdate(loc *stencil.Local, d1, x1, y1, d2, x2, y2 []float64, beta, a1, a2 float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		d1r, x1r, y1r := d1[lo:][:n], x1[lo:][:n], y1[lo:][:n]
		d2r, x2r, y2r := d2[lo:][:n], x2[lo:][:n], y2[lo:][:n]
		for i := range d1r {
			v1 := x1r[i] + beta*d1r[i]
			v2 := x2r[i] + beta*d2r[i]
			d1r[i], d2r[i] = v1, v2
			y1r[i] += a1 * v1
			y2r[i] += a2 * v2
		}
	}
}

// axpy2 computes y1 += a1·x1 and y2 += a2·x2 on the interior in one pass
// (the iterate and residual updates of PCG, Lanczos and the s-step solver;
// charged as two vector operations).
//
//pop:hotpath
func axpy2(loc *stencil.Local, y1, x1 []float64, a1 float64, y2, x2 []float64, a2 float64) {
	nx := loc.NxP
	h := loc.H
	for j := h; j < loc.NyP-h; j++ {
		lo := j*nx + h
		n := nx - 2*h
		y1r, x1r := y1[lo:][:n], x1[lo:][:n]
		y2r, x2r := y2[lo:][:n], x2[lo:][:n]
		for i := range y1r {
			y1r[i] += a1 * x1r[i]
			y2r[i] += a2 * x2r[i]
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
