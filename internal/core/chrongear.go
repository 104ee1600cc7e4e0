package core

// chronGear is the Chronopoulos–Gear recurrence (paper Algorithm 1): POP's
// production barotropic solver, a PCG variant whose two inner products
// ρ = ⟨r, M⁻¹r⟩ and δ = ⟨M⁻¹r, A·M⁻¹r⟩ share the iteration's single global
// reduction; on a check the driver's tail rides the same reduction, so
// checking costs no communication. Halos are refreshed on the
// preconditioned residual, which keeps one halo update per iteration for
// any preconditioner — and means x's own halos go stale, which is why the
// driver confirms a resilient solve's convergence on fresh ones.
//
// With a pointwise preconditioner (diagonal or identity) the advance also
// computes the next step's r' = M⁻¹r, ρ and ‖r‖² in its pass over the block
// (fusedUpdatePrecond), and that step's stage 0 only hands r' to the
// exchange; EVP and block-LU keep the staged path.
type chronGear struct {
	rp, zz, ss, pp     [][]float64 // r' = M⁻¹r, z = A·r', directions s and p
	inv                [][]float64 // the blocks' pointwise M⁻¹, empty unless every block has one
	rhoPrev, sigmaPrev float64
	rho, rn2           float64 // the step's local ρ and ‖r‖², between its stages
	check              bool
	primed             bool // the advance computed the next step's r', ρ and ‖r‖²
}

func (c *chronGear) bind(l *loop) {
	c.rp, c.zz = l.field("cg.rp"), l.field("cg.z")
	c.ss, c.pp = l.field("cg.s"), l.field("cg.p")
	c.inv = c.inv[:0]
	for _, pre := range l.rs.pre {
		d, ok := pre.(*diagPrecond)
		if !ok {
			c.inv = c.inv[:0]
			break
		}
		c.inv = append(c.inv, d.inv)
	}
	c.restart(l, 0)
}

func (c *chronGear) begin(l *loop, st int) [][]float64 { return nil }

func (c *chronGear) local(l *loop, st int, p []float64) ([][]float64, bool, float64) {
	if st == 0 {
		l.k++
		c.check = l.k%l.s.Opts.CheckEvery == 0
		if c.primed {
			// The advance computed them; charge the preconditioner here,
			// where its sweep used to run.
			c.primed = false
			for _, pre := range l.rs.pre {
				l.r.AddFlops(pre.ApplyFlops())
			}
		} else {
			// r' = M⁻¹r with ρ = ⟨r, r'⟩ (and the check's ⟨r, r⟩) behind it.
			c.rho, c.rn2 = stagePrecondDots(l.r, l.rs, c.rp, l.rr, c.check)
		}
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
	if rho == 0 {
		// r vanished exactly (a one-cell ocean does it in one step): x is
		// the solution, and β and α would be 0/0.
		return
	}
	beta := rho / c.rhoPrev
	sigma := delta - beta*beta*c.sigmaPrev
	alpha := rho / sigma
	c.rhoPrev, c.sigmaPrev = rho, sigma
	if len(c.inv) == 0 {
		for i, loc := range l.rs.locs {
			// s = r' + βs, x += αs and p = z + βp, r −= αp in one pass.
			fusedUpdate(loc, c.ss[i], c.rp[i], l.x[i], c.pp[i], c.zz[i], l.rr[i], beta, alpha, -alpha)
			l.r.AddFlops(4 * int64(loc.InteriorLen()))
		}
		return
	}
	// The same pass also takes the next step's r' = M⁻¹r, ρ = ⟨r, r'⟩ and
	// ⟨r, r⟩ (read only if that step checks), summed block by block as
	// stagePrecondDots sums them.
	c.rho, c.rn2 = 0, 0
	for i, loc := range l.rs.locs {
		rho, rn2 := fusedUpdatePrecond(loc, c.ss[i], c.rp[i], l.x[i], c.pp[i], c.zz[i], l.rr[i], c.inv[i], beta, alpha)
		c.rho += rho
		c.rn2 += rn2
		l.r.AddFlops(4 * int64(loc.InteriorLen()))
	}
	c.primed = true
}

// restart zeroes s and p, which makes the next β irrelevant — exactly the
// state of the first iteration — and drops an r' the advance computed from
// the residual it replaces (or, from bind, from the last solve's).
func (c *chronGear) restart(l *loop, st int) [][]float64 {
	zeroFields(c.ss, c.pp)
	c.rhoPrev, c.sigmaPrev = 1, 0
	c.primed = false
	return nil
}
