package stencil

// Local is the restriction of a nine-point Operator to one decomposition
// block, stored with a halo of width H on all four sides. Every kernel here
// reads the first ring only, the stencil's reach (decomp.DefaultHalo; why
// not POP's two rings: internal/comm's popHalo).
//
// Arrays are padded: dimensions (NxI+2H)×(NyI+2H) where NxI×NyI is the
// interior (owned) region. Index (i,j) with 0 ≤ i < NxP is flattened
// j*NxP+i; interior points have H ≤ i < NxP−H, H ≤ j < NyP−H.
type Local struct {
	NxP, NyP int // padded dimensions
	H        int // halo width
	// AC, AN, AE and ANE are the padded nine-point coefficient arrays
	// (same roles as Operator's, block-local layout).
	AC, AN, AE, ANE []float64
	// Mask marks ocean points (padded layout; false = land or halo fill).
	Mask []bool
	// Runs lists the interior's maximal ocean runs, row by row in row-major
	// order: the points every interior sweep visits. InitRuns derives it
	// from Mask; every constructor calls it once Mask is set.
	Runs []Run
}

// Run is one maximal stretch of ocean points along an interior row.
type Run struct {
	Start int // padded index of the run's first point
	Len   int // number of points
}

// InitRuns derives Runs from Mask.
func (l *Local) InitRuns() {
	n := 0
	l.eachRun(func(int, int) { n++ })
	l.Runs = make([]Run, 0, n)
	l.eachRun(func(start, length int) { l.Runs = append(l.Runs, Run{start, length}) })
}

// eachRun calls f on every maximal ocean run of the interior, in row-major
// order.
func (l *Local) eachRun(f func(start, length int)) {
	nx, h := l.NxP, l.H
	for j := h; j < l.NyP-h; j++ {
		for i := h; i < nx-h; {
			if !l.Mask[j*nx+i] {
				i++
				continue
			}
			start := i
			for i < nx-h && l.Mask[j*nx+i] {
				i++
			}
			f(j*nx+start, i-start)
		}
	}
}

// NxI returns the interior (owned) width.
func (l *Local) NxI() int { return l.NxP - 2*l.H }

// NyI returns the interior (owned) height.
func (l *Local) NyI() int { return l.NyP - 2*l.H }

// InteriorLen returns the number of owned points.
func (l *Local) InteriorLen() int { return l.NxI() * l.NyI() }

// Apply computes y = A·x over the interior's ocean points (Runs),
// reading x (and the coefficient arrays) from the first halo ring where
// the stencil reaches outside the block. Land and halo entries of y are
// left untouched: the solvers keep land entries at zero (core's land
// invariant), which is what A's identity land rows would give them, and
// callers refresh halos with a halo update when needed.
//
// Every run's window has one common length — the run plus one point on
// each side — so the loop index e names the east neighbour, e−1 the point
// itself and e−2 the west neighbour: the E/W reach is a constant offset
// into the three x rows and the AE/ANE rows instead of a window of its own.
// That is 10 base pointers here (11 with the right-hand side in
// core.residual) where one window per neighbour needed 20 and spilled them;
// the prove pass still drops every bounds check from the run loop (H ≥ 1
// keeps the ±nx reach inside the padded array; verify.sh holds it with
// -d=ssa/check_bce). The nine products are summed left to right in the
// order C, N, S, E, W, NE, SE, NW, SW — the order every recorded bit
// depends on.
//
//pop:hotpath
func (l *Local) Apply(y, x []float64) {
	nx := l.NxP
	if len(x) != nx*l.NyP || len(y) != nx*l.NyP {
		panic("stencil: Local.Apply dimension mismatch")
	}
	for _, run := range l.Runs {
		lo, n := run.Start-1, run.Len+2
		yr := y[lo:][:n]
		xc := x[lo:][:n]
		xn := x[lo+nx:][:n]
		xs := x[lo-nx:][:n]
		ac := l.AC[lo:][:n]
		an := l.AN[lo:][:n]
		ans := l.AN[lo-nx:][:n]
		ae := l.AE[lo:][:n]
		ane := l.ANE[lo:][:n]
		anes := l.ANE[lo-nx:][:n]
		for e := 2; e < len(xc); e++ {
			i, w := e-1, e-2
			yr[i] = ac[i]*xc[i] +
				an[i]*xn[i] + ans[i]*xs[i] +
				ae[i]*xc[e] + ae[w]*xc[w] +
				ane[i]*xn[e] + anes[i]*xs[e] +
				ane[w]*xn[w] + anes[w]*xs[w]
		}
	}
}

// ApplyAndMaskedDot computes y = A·x over the interior's ocean points and
// returns Σ y[k]·x[k] over them in the same pass — the matvec and the dot
// the CG-family solvers perform back-to-back, fused so x and y cross the
// cache once instead of twice. The accumulation visits points in the same
// row-major order as Apply followed by MaskedDotInterior(x, y), so the
// result is bitwise identical to the unfused pair.
//
//pop:hotpath
func (l *Local) ApplyAndMaskedDot(y, x []float64) float64 {
	nx := l.NxP
	if len(x) != nx*l.NyP || len(y) != nx*l.NyP {
		panic("stencil: Local.Apply dimension mismatch")
	}
	var s float64
	for _, run := range l.Runs {
		lo, n := run.Start-1, run.Len+2
		yr := y[lo:][:n]
		xc := x[lo:][:n]
		xn := x[lo+nx:][:n]
		xs := x[lo-nx:][:n]
		ac := l.AC[lo:][:n]
		an := l.AN[lo:][:n]
		ans := l.AN[lo-nx:][:n]
		ae := l.AE[lo:][:n]
		ane := l.ANE[lo:][:n]
		anes := l.ANE[lo-nx:][:n]
		for e := 2; e < len(xc); e++ {
			i, w := e-1, e-2
			v := ac[i]*xc[i] +
				an[i]*xn[i] + ans[i]*xs[i] +
				ae[i]*xc[e] + ae[w]*xc[w] +
				ane[i]*xn[e] + anes[i]*xs[e] +
				ane[w]*xn[w] + anes[w]*xs[w]
			yr[i] = v
			s += xc[i] * v
		}
	}
	return s
}

// ApplyFlops returns the floating-point operation count of one Apply call,
// following the paper's 9·n² accounting (9 multiply-adds per owned point).
func (l *Local) ApplyFlops() int64 { return 9 * int64(l.InteriorLen()) }

// MaskedDotInterior returns Σ x[k]·y[k] over owned ocean points — the
// rank-local part of a masked global reduction.
//
//pop:hotpath
func (l *Local) MaskedDotInterior(x, y []float64) float64 {
	var s float64
	for _, run := range l.Runs {
		xr := x[run.Start:][:run.Len]
		yr := y[run.Start:][:run.Len]
		for i := range xr {
			s += xr[i] * yr[i]
		}
	}
	return s
}
