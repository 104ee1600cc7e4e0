package core

// pipeCG is the pipelined preconditioned conjugate gradient of Ghysels &
// Vanroose (the §7 related-work alternative the paper contrasts with its
// own approach): one global reduction per iteration like ChronGear, but
// restructured so the preconditioner application and the matrix-vector
// product overlap with the reduction in flight. The virtual runtime prices
// that overlap through AllReduceOverlap, so this method shows how far
// latency *hiding* goes compared with P-CSI's latency *elimination*.
//
// The price of pipelining is four extra vector recurrences per iteration
// (z, q, s, p alongside x, r, u, w) and the well-known drift of the longer
// recurrences from b − A·x: near the round-off floor the recursive residual
// stalls (with EVP it used to grow into NaN), which the driver's drift
// watch answers with the residual replacement Ghysels & Vanroose prescribe
// — and, unlike for s-step, never by giving up: a replaced PipeCG residual
// is exact again, so every replacement buys real progress.
type pipeCG struct {
	uu, ww, mm, nn, zz, qq, ss, pp [][]float64
	gammaPrev, alphaPrev           float64
	fresh                          bool // no directions yet: β = 0
}

func (c *pipeCG) bind(l *loop) {
	c.uu, c.ww = l.field("pcg2.u"), l.field("pcg2.w")
	c.mm, c.nn = l.field("pcg2.m"), l.field("pcg2.n")
	c.zz, c.qq = l.field("pcg2.z"), l.field("pcg2.q")
	c.ss, c.pp = l.field("pcg2.s"), l.field("pcg2.p")
}

func (c *pipeCG) begin(l *loop, st int) [][]float64 { return c.restart(l, st) }

func (c *pipeCG) local(l *loop, st int, p []float64) ([][]float64, bool, float64) {
	l.k++
	check := l.k%l.s.Opts.CheckEvery == 0
	var gL, dL, rn2 float64
	l.hide = 0
	for i, loc := range l.rs.locs {
		n := int64(loc.InteriorLen())
		gL += loc.MaskedDotInterior(l.rr[i], c.uu[i])
		dL += loc.MaskedDotInterior(c.ww[i], c.uu[i])
		l.r.AddFlops(4 * n)
		if check {
			rn2 += loc.MaskedDotInterior(l.rr[i], l.rr[i])
			l.r.AddFlops(2 * n)
		}
		l.hide += l.rs.pre[i].ApplyFlops() + 9*n
	}
	p[0], p[1] = gL, dL
	return nil, check, rn2
}

// overlapped is the work the reduction hides: m = M⁻¹w and, on m's
// refreshed halos, n = A·m — already charged through AllReduceOverlap.
func (c *pipeCG) overlapped(l *loop, st int) [][]float64 {
	if st == 0 {
		for i := range l.rs.locs {
			l.rs.pre[i].Apply(c.mm[i], c.ww[i])
		}
		return c.mm
	}
	for i, loc := range l.rs.locs {
		loc.Apply(c.nn[i], c.mm[i])
	}
	return nil
}

func (c *pipeCG) observe(l *loop, g []float64, rn float64) verdict { return proceed }

func (c *pipeCG) advance(l *loop, g []float64) {
	gamma, delta := g[0], g[1]
	beta, alpha := 0.0, gamma/delta
	if !c.fresh {
		beta = gamma / c.gammaPrev
		alpha = gamma / (delta - beta*gamma/c.alphaPrev)
	}
	c.gammaPrev, c.alphaPrev, c.fresh = gamma, alpha, false
	for i, loc := range l.rs.locs {
		// p = u + βp, x += αp and s = w + βs, r −= αs first: they read the u
		// and w that the second pass then overwrites with q = m + βq,
		// u −= αq and z = n + βz, w −= αz.
		fusedUpdate(loc, c.pp[i], c.uu[i], l.x[i], c.ss[i], c.ww[i], l.rr[i], beta, alpha, -alpha)
		fusedUpdate(loc, c.qq[i], c.mm[i], c.uu[i], c.zz[i], c.nn[i], c.ww[i], beta, -alpha, -alpha)
		l.r.AddFlops(8 * int64(loc.InteriorLen()))
	}
}

// restart drops the four directions and rebuilds u = M⁻¹r, w = A·u from the
// residual the driver just (re)computed.
func (c *pipeCG) restart(l *loop, st int) [][]float64 {
	if st == 0 {
		zeroFields(c.zz, c.qq, c.ss, c.pp)
		stagePrecond(l.r, l.rs, c.uu, l.rr)
		return c.uu
	}
	stageApply(l.r, l.rs, c.ww, c.uu)
	c.gammaPrev, c.alphaPrev, c.fresh = 0, 0, true
	return nil
}
