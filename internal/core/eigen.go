package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/linalg"
)

// The adaptive Lanczos stop: both extreme Ritz pairs with a relative
// residual β_{k+1}|s_k|/θ ≤ eigTol (the paper's ε, §3), or eigMaxSteps steps.
// The largest stop measured at 1° is 128 steps (diagonal, 48 cores); on the
// 0.1°-scaled grid EVP stops at 107 and diagonal ends on the cap.
const (
	eigTol      = 0.15
	eigMaxSteps = 200
)

// Safety factors widening the estimated spectrum [ν, μ]: Lanczos
// approaches λ_min from above and λ_max from below, and Chebyshev
// iteration wants the true spectrum inside the interval. They are
// deliberately snug (a loose ν inflates the iteration count by
// √(ν_true/ν)); P-CSI's slow-convergence and divergence guards widen the
// interval adaptively when a mode leaks outside.
const (
	eigSafetyLow  = 0.85
	eigSafetyHigh = 1.05
)

// EstimateEigenvalues estimates the extreme eigenvalues of M⁻¹A — the
// bounds P-CSI's Chebyshev interval needs — with the Lanczos process
// realized through preconditioned CG (the classic CG–Lanczos connection:
// the CG step lengths α and improvement ratios β reassemble the Lanczos
// tridiagonal whose Ritz values converge to the spectrum of M⁻¹A). This is
// why the paper can say the cost of the Lanczos method is "similar to
// calling the ChronGear solver a few times" (§3).
//
// When maxSteps ≤ 0 the iteration stops adaptively, capped at eigMaxSteps:
// at step k the extreme Ritz values θ of the tridiagonal T_k, with unit
// eigenvectors s, have residual β_{k+1}·|s_k|, where β_{k+1} = √(ρ_{k+1}/ρ_k)/α_k
// is T_{k+1}'s next off-diagonal. It is known once the next ρ is reduced, so
// the test adds no collective to a step; the estimate stops when both θ
// have β_{k+1}|s_k|/θ ≤ eigTol and keeps T_k's values, one preconditioner
// apply and one ρ reduction after the step that formed them. A
// step-to-step change test stops far too early on a spectrum with a long
// low tail: Ritz values creep down it slowly, and a slow creep reads as
// converged. When maxSteps > 0 exactly that many steps run — the knob the
// Fig. 3 sweep turns. The estimates (with safety factors applied) are
// stored on the Session.
//
// b selects the Lanczos starting vector; pass nil for a deterministic
// random probe, which is the robust default — a smooth right-hand side has
// almost no weight on the lowest (spatially localized) eigenmodes, and
// Lanczos then badly overestimates λ_min.
func (s *Session) EstimateEigenvalues(b []float64, maxSteps int) (nu, mu float64, steps int, err error) {
	if err := s.Setup(); err != nil {
		return 0, 0, 0, err
	}
	forced := maxSteps > 0
	if !forced {
		maxSteps = eigMaxSteps
	}

	var nSteps int
	var lastNu, lastMu float64
	var failure error
	var eigTrace []EigBound // appended by shard 0 only

	st := s.W.RunShards(func(sh *comm.Shard) {
		// Per rank: the CG vectors, and the payload of the reduction in
		// flight. The vectors live for this run only: the session keeps
		// none of them.
		type lanczosRank struct{ xs, bs, rr, rp, zz, pp [][]float64 }
		lr := make([]lanczosRank, len(sh.Ranks))
		pay := make([][]float64, len(sh.Ranks))
		halo := make([][][]float64, len(sh.Ranks)) // the p of every rank
		for i, r := range sh.Each {
			rs := s.state(r)
			e := &lr[i]
			e.xs, e.bs, e.rr = s.newField(r), s.newField(r), s.newField(r)
			e.rp, e.zz, e.pp = s.newField(r), s.newField(r), s.newField(r)
			if b == nil {
				s.probeInto(r, e.bs)
			} else {
				s.scatterMasked(r, e.bs, b)
			}
			halo[i] = e.pp
			var bn2 float64
			for j := range r.Blocks {
				copy(e.rr[j], e.bs[j]) // x₀ = 0 ⇒ r₀ = b
				bn2 += rs.locs[j].MaskedDotInterior(e.bs[j], e.bs[j])
				r.AddFlops(2 * int64(rs.locs[j].InteriorLen()))
			}
			pay[i] = []float64{bn2}
		}
		if sh.AllReduce(pay)[0] == 0 {
			if sh.ID == 0 {
				failure = fmt.Errorf("core: cannot estimate eigenvalues from a zero right-hand side: %w", ErrBadSpec)
			}
			return
		}

		// The Lanczos tridiagonal and its Ritz values are scalar arithmetic
		// on reduced values: computed once per shard, identical on all.
		var aL, bL []float64
		var tri *linalg.SymTridiag
		rhoPrev, alpha, alphaPrev := 0.0, 0.0, 0.0
		prevNu, prevMu := 0.0, 0.0 // T's extreme Ritz values
		stop := false
		for k := 1; ; k++ {
			// One pass: the previous step's x/r update and its bound event,
			// then — unless the estimate is done — r' = M⁻¹r with ρ = ⟨r, r'⟩.
			for i, r := range sh.Each {
				e, rs := &lr[i], s.state(r)
				if k > 1 {
					for j := range r.Blocks {
						axpy2(rs.locs[j], e.xs[j], e.pp[j], alpha, e.rr[j], e.zz[j], -alpha)
						r.AddFlops(2 * int64(rs.locs[j].InteriorLen()))
					}
					traceEigBound(r, len(aL), prevNu, prevMu)
				}
				if stop {
					continue
				}
				var rhoL float64
				for j := range r.Blocks {
					rs.pre[j].Apply(e.rp[j], e.rr[j])
					r.AddFlops(rs.pre[j].ApplyFlops())
					rhoL += rs.locs[j].MaskedDotInterior(e.rr[j], e.rp[j])
					r.AddFlops(2 * int64(rs.locs[j].InteriorLen()))
				}
				pay[i][0] = rhoL
			}
			if stop {
				return
			}
			rho := sh.AllReduce(pay)[0]
			if rho <= 0 {
				return // Krylov space exhausted (or M indefinite)
			}
			beta, offDiag := 0.0, 0.0
			if k > 1 {
				beta = rho / rhoPrev
				offDiag = math.Sqrt(beta) / alphaPrev
				// The Ritz residuals of T_{k-1}, whose values the last pass
				// traced: stop on them, keeping T_{k-1}'s estimate.
				nuRes := offDiag * tri.EigvecLastComponent(prevNu) / prevNu
				muRes := offDiag * tri.EigvecLastComponent(prevMu) / prevMu
				if sh.ID == 0 {
					eb := &eigTrace[len(eigTrace)-1]
					eb.NuRes, eb.MuRes = nuRes, muRes
				}
				if !forced && nuRes <= eigTol && muRes <= eigTol {
					return
				}
			}
			rhoPrev = rho
			for i, r := range sh.Each {
				e, rs := &lr[i], s.state(r)
				for j := range r.Blocks {
					if k == 1 {
						copy(e.pp[j], e.rp[j])
					} else {
						xpay(rs.locs[j], e.pp[j], e.rp[j], beta)
						r.AddFlops(int64(rs.locs[j].InteriorLen()))
					}
				}
			}
			sh.Exchange(halo)
			for i, r := range sh.Each {
				e, rs := &lr[i], s.state(r)
				var deltaL float64
				for j := range r.Blocks {
					// z = B·p fused with δ += ⟨p, z⟩.
					deltaL += rs.locs[j].ApplyAndMaskedDot(e.zz[j], e.pp[j])
					r.AddFlops(9 * int64(rs.locs[j].InteriorLen()))
					r.AddFlops(2 * int64(rs.locs[j].InteriorLen()))
				}
				pay[i][0] = deltaL
			}
			delta := sh.AllReduce(pay)[0]
			if delta <= 0 {
				return
			}
			alpha = rho / delta

			// Lanczos tridiagonal entry from the CG coefficients.
			if k == 1 {
				aL = append(aL, 1/alpha)
			} else {
				aL = append(aL, 1/alpha+beta/alphaPrev)
				bL = append(bL, offDiag)
			}
			alphaPrev = alpha
			tri = &linalg.SymTridiag{Alpha: aL, Beta: bL}
			prevNu, prevMu = tri.ExtremeEigenvalues(0)
			if sh.ID == 0 {
				lastNu, lastMu = prevNu, prevMu
				nSteps = len(aL)
				eigTrace = append(eigTrace, EigBound{Step: len(aL), Nu: prevNu, Mu: prevMu})
			}
			stop = k == maxSteps
		}
	})
	if failure != nil {
		return 0, 0, 0, failure
	}
	if nSteps == 0 {
		return 0, 0, 0, fmt.Errorf("core: Lanczos produced no steps: %w", ErrEigEstimate)
	}
	s.Nu = lastNu * eigSafetyLow
	s.Mu = lastMu * eigSafetyHigh
	s.EigSteps = nSteps
	s.EigenStats = &st
	s.EigTrace = eigTrace
	return s.Nu, s.Mu, s.EigSteps, nil
}

// probeInto writes the Lanczos probe into the rank's per-block field set
// f: a deterministic pseudo-random vector whose spectral content covers
// every ocean mode. Each padded entry at ocean point k (ring included) is the
// splitmix64 hash of k mapped to [−0.5, 0.5); land and out-of-domain entries
// are zero. It is what scatterMasked makes of the whole-grid probe, written
// without building it.
func (s *Session) probeInto(r *comm.Rank, f [][]float64) {
	h, nx := s.D.Halo, s.D.Nx
	for i, b := range r.Blocks {
		nxp, _ := s.D.PaddedDims(b)
		for idx, ocean := range s.state(r).locs[i].Mask {
			f[i][idx] = 0
			if ocean { // an ocean entry is inside the domain
				pi, pj := idx%nxp, idx/nxp
				f[i][idx] = probeValue((b.Y0-h+pj)*nx + b.X0 - h + pi)
			}
		}
	}
}

// probeValue is the probe's entry at global point k.
func probeValue(k int) float64 {
	x := uint64(k) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) - 0.5
}
