package core

// pcg is classic preconditioned conjugate gradients — the textbook
// formulation POP used before ChronGear, kept as the baseline that shows
// why merging its two global reductions per iteration into one (ChronGear)
// and then into none (P-CSI) matters at scale. The two reductions are two
// steps of the driver: the first half reduces ρ = ⟨r, M⁻¹r⟩ and updates the
// direction, the second reduces δ = ⟨p, A·p⟩ (with the check's tail) and
// updates x and r.
type pcg struct {
	rp, zz, pp   [][]float64 // r' = M⁻¹r, z = A·p, direction p
	rho, rhoPrev float64
	rn2          float64 // the check's local ‖r‖², taken in the first half
	half         bool    // the next step is the iteration's second half
	check        bool    // the iteration in flight carries a check
	fresh        bool    // no direction yet: p = r'
}

func (c *pcg) bind(l *loop) {
	c.rp, c.zz, c.pp = l.field("pcg.rp"), l.field("pcg.z"), l.zeroField("pcg.p")
	c.restart(l, 0)
}

func (c *pcg) begin(l *loop, st int) [][]float64 { return nil }

func (c *pcg) local(l *loop, st int, p []float64) ([][]float64, bool, float64) {
	switch {
	case !c.half:
		c.check = (l.k+1)%l.s.Opts.CheckEvery == 0
		// r' = M⁻¹r with ρ = ⟨r, r'⟩ (and the check's ⟨r, r⟩) behind it.
		p[0], c.rn2 = stagePrecondDots(l.r, l.rs, c.rp, l.rr, c.check)
		chargeDot(l.r, l.rs)
		return nil, false, 0
	case st == 0:
		l.k++
		return c.pp, false, 0 // refresh p's halos
	}
	// z = A·p fused with δ = ⟨p, z⟩.
	p[0] = stageApplyDot(l.r, l.rs, c.zz, c.pp)
	if c.check {
		chargeDot(l.r, l.rs) // ⟨r, r⟩
	}
	return nil, c.check, c.rn2
}

func (c *pcg) observe(l *loop, g []float64, rn float64) verdict { return proceed }

func (c *pcg) advance(l *loop, g []float64) {
	if !c.half {
		c.rho = g[0]
		switch {
		case c.rho == 0:
			// r vanished exactly (a one-cell ocean does it in one step): x is
			// the solution, and β here and α below would be 0/0.
		case c.fresh:
			for i := range c.pp {
				copy(c.pp[i], c.rp[i])
			}
		default:
			beta := c.rho / c.rhoPrev
			for i, loc := range l.rs.locs {
				xpay(loc, c.pp[i], c.rp[i], beta)
				l.r.AddFlops(int64(loc.InteriorLen()))
			}
		}
		c.rhoPrev, c.fresh, c.half = c.rho, false, true
		return
	}
	c.half = false
	if c.rho == 0 {
		return
	}
	alpha := c.rho / g[0]
	for i, loc := range l.rs.locs {
		axpy2(loc, l.x[i], c.pp[i], alpha, l.rr[i], c.zz[i], -alpha) // x += αp, r −= αz
		l.r.AddFlops(2 * int64(loc.InteriorLen()))
	}
}

func (c *pcg) restart(l *loop, st int) [][]float64 {
	c.half, c.fresh = false, true
	return nil
}
