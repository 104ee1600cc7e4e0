package stencil

import "repro/internal/grid"

// Row returns the nine stencil coefficients of padded point (i,j) in the
// order [SW, S, SE, W, C, E, NW, N, NE]. The point must not lie on the
// outermost padded ring (every Local has H ≥ 1, so all interior points and
// the first halo ring are valid).
func (l *Local) Row(i, j int) [9]float64 {
	nx := l.NxP
	k := j*nx + i
	return [9]float64{
		l.ANE[k-nx-1], l.AN[k-nx], l.ANE[k-nx],
		l.AE[k-1], l.AC[k], l.AE[k],
		l.ANE[k-1], l.AN[k], l.ANE[k],
	}
}

// AssembleWindowFilled builds the nine-point operator on the window
// [x0, x0+nx) × [y0, y0+ny) of grid g — padded with a one-point ring — as if
// every grid point were ocean with depth at least fill: land depths are
// raised to fill and out-of-range metric/depth lookups clamp to the nearest
// in-range point.
//
// This is the operator the block-EVP preconditioner marches on. Marching
// requires a nonzero north-east corner coefficient at every point, which the
// true operator cannot provide near coastlines (dry corners zero the
// coupling). Filling restores wet corners everywhere while leaving the
// operator identical to the true one wherever all involved cells are ocean
// deeper than fill, so the preconditioner stays a close SPD approximation of
// the true block (the application layer masks land points back to identity
// rows). fill must be positive and at most the grid's minimum wet depth for
// the "identical away from land" property to hold exactly.
func AssembleWindowFilled(g *grid.Grid, phi float64, x0, y0, nx, ny int, fill float64) *Local {
	nxp, nyp := nx+2, ny+2
	l := &Local{
		NxP: nxp, NyP: nyp, H: 1,
		AC:   make([]float64, nxp*nyp),
		AN:   make([]float64, nxp*nyp),
		AE:   make([]float64, nxp*nyp),
		ANE:  make([]float64, nxp*nyp),
		Mask: make([]bool, nxp*nyp),
	}
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	ht := func(gi, gj int) float64 {
		h := g.HT[g.Idx(clamp(gi, 0, g.Nx-1), clamp(gj, 0, g.Ny-1))]
		if h < fill {
			return fill
		}
		return h
	}
	// Mass term everywhere (the filled grid has no land rows).
	for j := 0; j < nyp; j++ {
		gj := clamp(y0-1+j, 0, g.Ny-1)
		for i := 0; i < nxp; i++ {
			gi := clamp(x0-1+i, 0, g.Nx-1)
			k := j*nxp + i
			l.AC[k] = phi * g.TAREA[g.Idx(gi, gj)]
			l.Mask[k] = true
		}
	}
	// Corner elements over corners (i,j) .. one ring beyond the window so
	// the padded ring gets its couplings too. Corner local index (i,j) is
	// the NE corner of padded point (i,j).
	for j := 0; j < nyp-1; j++ {
		gj := y0 - 1 + j
		for i := 0; i < nxp-1; i++ {
			gi := x0 - 1 + i
			h := ht(gi, gj)
			for _, d := range [3][2]int{{1, 0}, {0, 1}, {1, 1}} {
				if hh := ht(gi+d[0], gj+d[1]); hh < h {
					h = hh
				}
			}
			km := g.Idx(clamp(gi, 0, g.Nx-1), clamp(gj, 0, g.Ny-1))
			dx, dy := g.DXU[km], g.DYU[km]
			w := h * g.UAREA[km]
			kx := 1 / (4 * dx * dx)
			ky := 1 / (4 * dy * dy)
			diag := w * (kx + ky)
			ew := w * (ky - kx)
			ns := w * (kx - ky)
			di := -w * (kx + ky)

			k := j*nxp + i
			kE, kN, kNE := k+1, k+nxp, k+nxp+1
			l.AC[k] += diag
			l.AC[kE] += diag
			l.AC[kN] += diag
			l.AC[kNE] += diag
			l.AE[k] += ew
			l.AE[kN] += ew
			l.AN[k] += ns
			l.AN[kE] += ns
			l.ANE[k] += di
		}
	}
	l.InitRuns()
	return l
}
