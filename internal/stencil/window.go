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

// AssembleWindow builds the nine-point operator on the window
// [x0, x0+nx) × [y0, y0+ny) of grid g, padded with a one-point ring.
//
// With fill = 0 it is the true operator restricted to the window: every
// padded point inside the domain carries the coefficients Assemble gives it
// (land rows are identity rows), and points outside the domain are zero and
// dry. It is what a session's block operators are, so no whole-grid
// operator has to exist to slice them from.
//
// With fill > 0 it is the window the block-EVP preconditioner marches on:
// every point is ocean with depth at least fill — land depths are raised to
// fill and out-of-range metric/depth lookups clamp to the nearest in-range
// point. Marching requires a nonzero north-east corner coefficient at every
// point, which the true operator cannot provide near coastlines (dry corners
// zero the coupling). Filling restores wet corners everywhere while leaving
// the operator identical to the true one wherever all involved cells are
// ocean deeper than fill, so the preconditioner stays a close SPD
// approximation of the true block (the application layer masks land points
// back to identity rows). fill must be at most the grid's minimum wet depth
// for the "identical away from land" property to hold exactly.
func AssembleWindow(g *grid.Grid, phi float64, x0, y0, nx, ny int, fill float64) *Local {
	nxp, nyp := nx+2, ny+2
	l := &Local{
		NxP: nxp, NyP: nyp, H: 1,
		AC:   make([]float64, nxp*nyp),
		AN:   make([]float64, nxp*nyp),
		AE:   make([]float64, nxp*nyp),
		ANE:  make([]float64, nxp*nyp),
		Mask: make([]bool, nxp*nyp),
	}
	assemble(l, g, phi, x0-1, y0-1, fill)
	l.InitRuns()
	return l
}

// AssembleWindowFilled is AssembleWindow under its earlier name, kept for
// the benchmark's EVP probe.
func AssembleWindowFilled(g *grid.Grid, phi float64, x0, y0, nx, ny int, fill float64) *Local {
	return AssembleWindow(g, phi, x0, y0, nx, ny, fill)
}

// assemble adds the operator into l's NxP×NyP arrays, whose index (0,0) is
// grid point (ox, oy): the mass term, then every corner element in
// row-major order, so a coefficient sums its terms in the same order
// whatever array it lands in, and a window at fill 0 is the whole grid's
// slice bit for bit. Corner (ci,cj) is the north-east corner of array
// point (ci,cj). A nil l.Mask is left alone (Assemble shares the grid's).
func assemble(l *Local, g *grid.Grid, phi float64, ox, oy int, fill float64) {
	nxp, nyp := l.NxP, l.NyP
	filled := fill > 0
	clamp := func(v, hi int) int { return max(0, min(v, hi)) }
	ht := func(gi, gj int) float64 {
		return max(g.HT[g.Idx(clamp(gi, g.Nx-1), clamp(gj, g.Ny-1))], fill)
	}
	for j := 0; j < nyp; j++ {
		for i := 0; i < nxp; i++ {
			gi, gj, k := ox+i, oy+j, j*nxp+i
			if filled { // the filled window has no land rows
				l.AC[k] = phi * g.TAREA[g.Idx(clamp(gi, g.Nx-1), clamp(gj, g.Ny-1))]
				l.Mask[k] = true
				continue
			}
			if gi < 0 || gj < 0 || gi >= g.Nx || gj >= g.Ny {
				continue
			}
			kg := g.Idx(gi, gj)
			if !g.Mask[kg] {
				l.AC[k] = 1 // identity land row
				continue
			}
			l.AC[k] = phi * g.TAREA[kg]
			if l.Mask != nil {
				l.Mask[k] = true
			}
		}
	}
	// The filled window is closed at its padded ring, so it takes the
	// corners inside the array. The true operator also takes the corners
	// one ring out, so that its ring points get every coupling too; only
	// the domain's corners contribute.
	c0, c1, d1 := 0, nxp-1, nyp-1
	if !filled {
		c0, c1, d1 = -1, nxp, nyp
	}
	at := func(i, j int) int {
		if i < 0 || j < 0 || i >= nxp || j >= nyp {
			return -1
		}
		return j*nxp + i
	}
	for cj := c0; cj < d1; cj++ {
		for ci := c0; ci < c1; ci++ {
			gi, gj := ox+ci, oy+cj
			var h float64
			var km int
			if filled {
				h = min(ht(gi, gj), ht(gi+1, gj), ht(gi, gj+1), ht(gi+1, gj+1))
				km = g.Idx(clamp(gi, g.Nx-1), clamp(gj, g.Ny-1))
			} else {
				if gi < 0 || gj < 0 || gi >= g.Nx-1 || gj >= g.Ny-1 {
					continue
				}
				km = g.Idx(gi, gj)
				if h = g.HU[km]; h == 0 {
					continue // dry corner: no contribution
				}
			}
			w := h * g.UAREA[km]
			dx, dy := g.DXU[km], g.DYU[km]
			kx := 1 / (4 * dx * dx)
			ky := 1 / (4 * dy * dy)
			diag := w * (kx + ky)
			ew := w * (ky - kx) // (i,j)↔(i+1,j) and (i,j+1)↔(i+1,j+1)
			ns := w * (kx - ky) // (i,j)↔(i,j+1) and (i+1,j)↔(i+1,j+1)
			di := -w * (kx + ky)
			// Both diagonals of the element: ANE(i,j) is (i,j)↔(i+1,j+1),
			// and the (i+1,j)↔(i,j+1) anti-diagonal is the same value, read
			// back via the ANE(i,j−1) convention in Apply.
			if k := at(ci, cj); k >= 0 {
				l.AC[k] += diag
				l.AE[k] += ew
				l.AN[k] += ns
				l.ANE[k] += di
			}
			if k := at(ci+1, cj); k >= 0 {
				l.AC[k] += diag
				l.AN[k] += ns
			}
			if k := at(ci, cj+1); k >= 0 {
				l.AC[k] += diag
				l.AE[k] += ew
			}
			if k := at(ci+1, cj+1); k >= 0 {
				l.AC[k] += diag
			}
		}
	}
}
