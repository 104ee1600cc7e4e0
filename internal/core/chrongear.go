package core

// chronGear is the Chronopoulos–Gear recurrence (paper Algorithm 1): POP's
// production barotropic solver, a PCG variant whose two inner products
// ρ = ⟨r, M⁻¹r⟩ and δ = ⟨M⁻¹r, A·M⁻¹r⟩ share the iteration's single global
// reduction; on a check the driver's tail rides the same reduction, so
// checking costs no communication. Halos are refreshed on the
// preconditioned residual, which keeps one halo update per iteration for
// any preconditioner — and means x's own halos go stale, which is why the
// driver confirms a resilient solve's convergence on fresh ones.
type chronGear struct {
	rp, zz, ss, pp     [][]float64 // r' = M⁻¹r, z = A·r', directions s and p
	rhoPrev, sigmaPrev float64
	rho, rn2           float64 // the step's local ρ and ‖r‖², between its stages
	check              bool
}

func (c *chronGear) bind(l *loop) {
	c.rp, c.zz = l.field("cg.rp"), l.field("cg.z")
	c.ss, c.pp = l.field("cg.s"), l.field("cg.p")
	c.restart(l, 0)
}

func (c *chronGear) begin(l *loop, st int) [][]float64 { return nil }

func (c *chronGear) local(l *loop, st int, p []float64) ([][]float64, bool, float64) {
	if st == 0 {
		l.k++
		c.check = l.k%l.s.Opts.CheckEvery == 0
		// r' = M⁻¹r with ρ = ⟨r, r'⟩ (and the check's ⟨r, r⟩) behind it.
		c.rho, c.rn2 = stagePrecondDots(l.r, l.rs, c.rp, l.rr, c.check)
		if c.check {
			chargeDot(l.r, l.rs)
		}
		return c.rp, false, 0 // the iteration's one boundary update
	}
	// z = A·r' fused with δ = ⟨z, r'⟩ — one pass over the operands.
	delta := stageApplyDot(l.r, l.rs, c.zz, c.rp)
	chargeDot(l.r, l.rs) // ρ
	p[0], p[1] = c.rho, delta
	return nil, c.check, c.rn2
}

func (c *chronGear) observe(l *loop, g []float64, rn float64) verdict { return proceed }

func (c *chronGear) advance(l *loop, g []float64) {
	rho, delta := g[0], g[1]
	beta := rho / c.rhoPrev
	sigma := delta - beta*beta*c.sigmaPrev
	alpha := rho / sigma
	c.rhoPrev, c.sigmaPrev = rho, sigma
	for i, loc := range l.rs.locs {
		// s = r' + βs, x += αs and p = z + βp, r −= αp in one pass.
		fusedUpdate(loc, c.ss[i], c.rp[i], l.x[i], c.pp[i], c.zz[i], l.rr[i], beta, alpha, -alpha)
		l.r.AddFlops(4 * int64(loc.InteriorLen()))
	}
}

// restart zeroes s and p, which makes the next β irrelevant — exactly the
// state of the first iteration.
func (c *chronGear) restart(l *loop, st int) [][]float64 {
	zeroFields(c.ss, c.pp)
	c.rhoPrev, c.sigmaPrev = 1, 0
	return nil
}
