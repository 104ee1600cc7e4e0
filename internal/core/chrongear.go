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
}

func (c *chronGear) bind(l *loop) {
	c.rp, c.zz = l.field("cg.rp"), l.field("cg.z")
	c.ss, c.pp = l.field("cg.s"), l.field("cg.p")
	c.restart(l)
}

func (c *chronGear) begin(l *loop) {}

func (c *chronGear) local(l *loop, p []float64) (bool, float64) {
	l.k++
	check := l.k%l.s.Opts.CheckEvery == 0
	// r' = M⁻¹r with ρ = ⟨r, r'⟩ (and the check's ⟨r, r⟩) behind it.
	rho, rn2 := stagePrecondDots(l.r, l.rs, c.rp, l.rr, check)
	if check {
		chargeDot(l.r, l.rs)
	}
	// z = A·r' fused with δ = ⟨z, r'⟩ — one pass over the operands, with the
	// iteration's one boundary update inside.
	delta := stageFusedMatvecDot(l.r, l.rs, c.zz, c.rp)
	chargeDot(l.r, l.rs) // ρ
	p[0], p[1] = rho, delta
	return check, rn2
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
func (c *chronGear) restart(l *loop) {
	zeroFields(c.ss, c.pp)
	c.rhoPrev, c.sigmaPrev = 1, 0
}
