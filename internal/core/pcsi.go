package core

import "math"

// pcsi is the preconditioned Classical Stiefel Iteration (paper Algorithm
// 2) — a Chebyshev-type method whose iteration body contains *no* inner
// products: it declares no sums of its own, so the driver reduces only when
// a step carries a convergence check, every CheckEvery iterations, and a
// cancelled or checked solve performs zero extra communication. Its
// Chebyshev interval [ν, μ] is the session's Lanczos estimate
// (EstimateEigenvalues, run by the driver when absent, mirroring POP's
// one-time solver initialization). With PrecondIdentity this is the plain
// CSI solver of Hu et al. 2013.
//
// The residual is recomputed from x every iteration, not recursed, so
// neither the silent-corruption tripwire nor the drift watch applies; what
// P-CSI guards instead is its interval (observe).
type pcsi struct {
	rp, dx [][]float64 // r' = M⁻¹r and the update direction Δx

	// Chebyshev parameters of the current interval (Algorithm 2 line 1),
	// recomputed when a guard moves it. All identical on every rank: the
	// guards are driven by the reduced residual alone.
	nu, mu, gamma, inv4a2 float64
	omega                 float64 // the iterated function ω_k
	since                 int     // iterations run on the interval since ω₀
	prevRn                float64
	widenings, slowChecks int
	raises                int
}

func (c *pcsi) bind(l *loop) {
	c.rp = l.field("csi.rp")
	// dx starts from zero: the recurrence's first update multiplies the
	// previous dx by 0, and a non-finite leftover from an earlier faulted
	// solve on this session would otherwise survive the product.
	c.dx = l.zeroField("csi.dx")
	c.widenings, c.raises = 0, 0
	c.setInterval(l.s.Nu, l.s.Mu)
	c.prevRn, c.slowChecks = math.Inf(1), 0
}

// setInterval derives the Chebyshev parameters from [ν, μ] and puts the
// recurrence back at ω₀.
func (c *pcsi) setInterval(nu, mu float64) {
	c.nu, c.mu = nu, mu
	alpha := 2 / (mu - nu)
	beta := (mu + nu) / (mu - nu)
	c.gamma = beta / alpha // spectrum centre
	c.inv4a2 = 1 / (4 * alpha * alpha)
	c.omega, c.since = 2/c.gamma, 0
}

// begin is Algorithm 2's initialization: Δx₀ = γ⁻¹M⁻¹r₀, x₁ = x₀ + Δx₀,
// then r = b − A·x₁.
func (c *pcsi) begin(l *loop, st int) [][]float64 {
	if st == 0 {
		return c.step(l, 1/c.gamma, 0)
	}
	l.residual()
	return nil
}

// step is one Stiefel update: r' = M⁻¹r, Δx = ω·r' + c·Δx, x += Δx. It
// returns x, whose refreshed halos the residual r = b − A·x needs — the
// iteration's only communication.
func (c *pcsi) step(l *loop, omega, coef float64) [][]float64 {
	for i, loc := range l.rs.locs {
		l.rs.pre[i].Apply(c.rp[i], l.rr[i])
		l.r.AddFlops(l.rs.pre[i].ApplyFlops())
		chebStep(loc, l.x[i], c.dx[i], c.rp[i], omega, coef)
		l.r.AddFlops(3 * int64(loc.InteriorLen()))
	}
	return l.x
}

func (c *pcsi) local(l *loop, st int, p []float64) ([][]float64, bool, float64) {
	if st == 0 {
		l.k++
		c.since++
		c.omega = 1 / (c.gamma - c.inv4a2*c.omega)
		return c.step(l, c.omega, c.gamma*c.omega-1), false, 0
	}
	l.residual()
	if l.k%l.s.Opts.CheckEvery != 0 {
		return nil, false, 0
	}
	return nil, true, stageDot(l.r, l.rs, l.rr, l.rr)
}

// observe holds P-CSI's two interval guards, both driven entirely by the
// reduced residual and so deterministic across ranks.
func (c *pcsi) observe(l *loop, g []float64, rn float64) verdict {
	// Divergence guard: a growing residual means the spectrum leaks *above*
	// μ (Lanczos approaches λ_max from below, and approximate EVP block
	// solves can push eigenvalues slightly past the estimate). Raise μ and
	// restart the recurrence; give up after a few attempts.
	if rn > 2*c.prevRn || rn > 1e8*l.d.bnorm {
		if c.raises >= 8 {
			return stop
		}
		c.raises++
		c.setInterval(c.nu, c.mu*1.5)
		c.prevRn = rn
		traceInterval(l.r, l.sr.trace, l.k, "raise-mu", c.nu, c.mu)
		return hold
	}
	// Slow-convergence guard: the Lanczos ν approaches λ_min from above,
	// and a mode below the Chebyshev interval contracts only at
	// exp(acosh((γ−λ)/δ)−acosh(γ/δ)) per iteration — arbitrarily slowly.
	// When several consecutive checks contract worse than 0.8 per
	// CheckEvery iterations, widen the interval downward and restart the
	// recurrence (bounded: each restart discards Chebyshev momentum).
	// Well-estimated intervals (the paper's diagonal and EVP
	// configurations) contract ~0.1–0.3 per check and never trigger this.
	// An ill-conditioned interval cannot contract 0.8 per check even when
	// it brackets the spectrum: its Chebyshev bound promises T_{k−c}(β)/T_k(β)
	// for the check ending k iterations into the interval (c = CheckEvery,
	// β = (μ+ν)/(μ−ν)), ≈ 1 for the first ~√κ/2 iterations and σ^c after
	// (σ = (√κ−1)/(√κ+1)). A check is slow when it contracts worse than 0.8
	// and worse than the square root of that promise, so the guard does not
	// widen an interval that is already right. The square root stays above
	// 0.8 past an interval's first few checks only when κ exceeds ≈ 2,000.
	a, k, ce := math.Acosh((c.mu+c.nu)/(c.mu-c.nu)), float64(c.since), float64(l.s.Opts.CheckEvery)
	promise := (math.Exp(-ce*a) + math.Exp(-(2*k-ce)*a)) / (1 + math.Exp(-2*k*a))
	if rn > max(0.8, math.Sqrt(promise))*c.prevRn {
		c.slowChecks++
	} else {
		c.slowChecks = 0
	}
	if c.slowChecks >= 3 && c.widenings < 6 {
		c.widenings++
		c.slowChecks = 0
		c.setInterval(c.nu*0.25, c.mu)
		traceInterval(l.r, l.sr.trace, l.k, "widen-nu", c.nu, c.mu)
	}
	c.prevRn = rn
	return proceed
}

func (c *pcsi) advance(l *loop, g []float64) {}

// restart puts the recurrence back at ω₀ on the current interval. The
// update direction may carry the NaN that tripped a rollback; the restarted
// recurrence must not see it.
func (c *pcsi) restart(l *loop, st int) [][]float64 {
	zeroFields(c.dx)
	c.omega, c.since = 2/c.gamma, 0
	c.prevRn, c.slowChecks = math.Inf(1), 0
	return nil
}
