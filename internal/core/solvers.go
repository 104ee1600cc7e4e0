package core

import "repro/internal/stencil"

// Block-level vector kernels. All operate on the interior's ocean points —
// the wet runs of stencil.Local.Runs — and are charged with the paper's flop
// accounting (§2.2): one unit per point per vector operation, two per masked
// inner product, nine per stencil application, all on the whole interior
// (POP computes whole blocks, and the priced virtual clock models POP) — so
// the Session's virtual times reproduce the coefficients of Equations
// 2/3/5/6 by construction.
//
// Land entries of every session field are +0 and stay so (the land
// invariant): scatterMasked zeroes them, and no kernel or preconditioner
// writes one. Zero is what the operator's identity land rows would compute
// there, and it is what makes skipping land safe: a wet point reads its
// land neighbours through zero couplings, and 0·0 adds nothing, where a
// non-finite land entry would leak into the ocean every iteration.
//
// Inner loops run over per-run slice windows of one common length so the
// compiler's prove pass eliminates the bounds checks (same idiom as
// stencil.Local.Apply; verify.sh holds the run loops to it with
// go build -gcflags=-d=ssa/check_bce).

// residual computes r = b − A·x on the interior's ocean points (fused;
// charged as one stencil application). x must have valid ring-1 halos.
//
//pop:hotpath
func residual(loc *stencil.Local, r, b, x []float64) {
	nx := loc.NxP
	for _, run := range loc.Runs {
		lo, n := run.Start-1, run.Len+2
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

// xpay computes dst = x + a·dst on the interior's ocean points (the
// direction update of PCG and Lanczos, whose iterate update waits on a
// reduction).
//
//pop:hotpath
func xpay(loc *stencil.Local, dst, x []float64, a float64) {
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
		dr := dst[lo:][:n]
		xr := x[lo:][:n]
		for i := range dr {
			dr[i] = xr[i] + a*dr[i]
		}
	}
}

// fusedUpdate advances two direction/iterate pairs in one pass over the
// interior's ocean points: d1 = x1 + β·d1, y1 += a1·d1 and d2 = x2 + β·d2,
// y2 += a2·d2 — ChronGear's s/x and p/r updates, which were four separate
// xpay/axpy sweeps. Every element sees the arithmetic of xpay followed by
// axpy, so the fusion is bitwise invisible; it is still charged as four
// vector operations.
//
//pop:hotpath
func fusedUpdate(loc *stencil.Local, d1, x1, y1, d2, x2, y2 []float64, beta, a1, a2 float64) {
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
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

// fusedUpdatePrecond is ChronGear's fusedUpdate followed, in the same pass,
// by the next step's pointwise preconditioner and its dots: s = r' + β·s,
// x += α·s, p = z + β·p, r −= α·p, then r' = r·inv, and it returns the
// block's ρ = Σ r·r' and ‖r‖² = Σ r·r. One loop over the block where there
// were three (the update, the preconditioner, the dots); each point sees
// the arithmetic of the three, and the sums visit the points in their
// order, so the fusion is bitwise invisible. The caller charges the flops
// where the separate sweeps did.
//
//pop:hotpath
func fusedUpdatePrecond(loc *stencil.Local, s, rp, x, p, z, r, inv []float64, beta, alpha float64) (rho, rn2 float64) {
	na := -alpha
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
		sr, rpr, xr := s[lo:][:n], rp[lo:][:n], x[lo:][:n]
		pr, zr, rr := p[lo:][:n], z[lo:][:n], r[lo:][:n]
		ir := inv[lo:][:n]
		for i := range sr {
			vs := rpr[i] + beta*sr[i]
			vp := zr[i] + beta*pr[i]
			sr[i], pr[i] = vs, vp
			xr[i] += alpha * vs
			rv := rr[i] + na*vp
			rr[i] = rv
			w := rv * ir[i]
			rpr[i] = w
			rho += rv * w
			rn2 += rv * rv
		}
	}
	return rho, rn2
}

// axpy2 computes y1 += a1·x1 and y2 += a2·x2 on the interior's ocean points
// in one pass (the iterate and residual updates of PCG, Lanczos and the
// s-step solver; charged as two vector operations).
//
//pop:hotpath
func axpy2(loc *stencil.Local, y1, x1 []float64, a1 float64, y2, x2 []float64, a2 float64) {
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
		y1r, x1r := y1[lo:][:n], x1[lo:][:n]
		y2r, x2r := y2[lo:][:n], x2[lo:][:n]
		for i := range y1r {
			y1r[i] += a1 * x1r[i]
			y2r[i] += a2 * x2r[i]
		}
	}
}

// chebBasisFirst computes dst = invDelta·(w − γ·v) on the interior's ocean
// points — the first Chebyshev basis step of the s-step solver, v₁ = T₁ of
// the mapped operator applied to v₀ (charged as two vector operations).
//
//pop:hotpath
func chebBasisFirst(loc *stencil.Local, dst, w, v []float64, gamma, invDelta float64) {
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
		dr := dst[lo:][:n]
		wr := w[lo:][:n]
		vr := v[lo:][:n]
		for i := range dr {
			dr[i] = invDelta * (wr[i] - gamma*vr[i])
		}
	}
}

// chebBasisNext computes dst = twoInvDelta·(w − γ·v) − u on the interior's
// ocean points — the three-term Chebyshev recurrence vⱼ₊₁ = (2/δ)(M⁻¹A·vⱼ −
// γ·vⱼ) − vⱼ₋₁ that keeps the s-step basis well-conditioned (charged as
// three vector operations).
//
//pop:hotpath
func chebBasisNext(loc *stencil.Local, dst, w, v, u []float64, gamma, twoInvDelta float64) {
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
		dr := dst[lo:][:n]
		wr := w[lo:][:n]
		vr := v[lo:][:n]
		ur := u[lo:][:n]
		for i := range dr {
			dr[i] = twoInvDelta*(wr[i]-gamma*vr[i]) - ur[i]
		}
	}
}

// chebStep advances P-CSI one step in a single pass over the interior's
// ocean points: dx = ω·rp + c·dx, then x += dx (Algorithm 2 lines 7–8;
// charged as three vector operations).
//
//pop:hotpath
func chebStep(loc *stencil.Local, x, dx, rp []float64, omega, c float64) {
	for _, run := range loc.Runs {
		lo, n := run.Start, run.Len
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
