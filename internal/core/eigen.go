package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/linalg"
)

// The adaptive Lanczos stop: both extreme Ritz values within eigTol relative
// change of the previous step's (the paper's ε, §3), or eigMaxSteps steps.
const (
	eigTol      = 0.15
	eigMaxSteps = 40
)

// EstimateEigenvalues estimates the extreme eigenvalues of M⁻¹A — the
// bounds P-CSI's Chebyshev interval needs — with the Lanczos process
// realized through preconditioned CG (the classic CG–Lanczos connection:
// the CG step lengths α and improvement ratios β reassemble the Lanczos
// tridiagonal whose Ritz values converge to the spectrum of M⁻¹A). This is
// why the paper can say the cost of the Lanczos method is "similar to
// calling the ChronGear solver a few times" (§3).
//
// When maxSteps ≤ 0 the iteration stops adaptively: both extreme Ritz
// values must change by less than eigTol relative, capped at eigMaxSteps.
// When maxSteps > 0 exactly that many steps run — the knob the Fig. 3 sweep
// turns. The estimates (with safety factors applied) are stored on the
// Session.
//
// b selects the Lanczos starting vector; pass nil for a deterministic
// random probe, which is the robust default — a smooth right-hand side has
// almost no weight on the lowest (spatially localized) eigenmodes, and
// Lanczos then badly overestimates λ_min.
func (s *Session) EstimateEigenvalues(b []float64, maxSteps int) (nu, mu float64, steps int, err error) {
	if err := s.Setup(); err != nil {
		return 0, 0, 0, err
	}
	if b == nil {
		b = s.eigenProbe()
	}
	forced := maxSteps > 0
	if !forced {
		maxSteps = eigMaxSteps
	}

	var nSteps int
	var lastNu, lastMu float64
	var failure error
	var eigTrace []EigBound // appended by rank 0 only

	st := s.W.Run(func(r *comm.Rank) {
		rs := s.state(r)
		nb := len(r.Blocks)
		xs := s.zeroField(r, "eig.x")
		bs := s.scatterMasked(r, "eig.b", b)
		rr := s.field(r, "eig.r")
		rp := s.field(r, "eig.rp")
		zz := s.field(r, "eig.z")
		pp := s.zeroField(r, "eig.p")
		payload := make([]float64, 1)

		var bn2 float64
		for i := 0; i < nb; i++ {
			copy(rr[i], bs[i]) // x₀ = 0 ⇒ r₀ = b
			bn2 += rs.locs[i].MaskedDotInterior(bs[i], bs[i])
			r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
		}
		payload[0] = bn2
		if r.AllReduce(payload)[0] == 0 {
			if r.ID == 0 {
				failure = fmt.Errorf("core: cannot estimate eigenvalues from a zero right-hand side: %w", ErrBadSpec)
			}
			return
		}

		var aL, bL []float64 // local copies of the CG coefficients
		rhoPrev := 0.0
		alphaPrev := 0.0
		prevNu, prevMu := 0.0, 0.0
		for k := 1; k <= maxSteps; k++ {
			var rhoL float64
			for i := 0; i < nb; i++ {
				rs.pre[i].Apply(rp[i], rr[i])
				r.AddFlops(rs.pre[i].ApplyFlops())
				rhoL += rs.locs[i].MaskedDotInterior(rr[i], rp[i])
				r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
			}
			payload[0] = rhoL
			rho := r.AllReduce(payload)[0]
			if rho <= 0 {
				break // Krylov space exhausted (or M indefinite)
			}
			beta := 0.0
			if k == 1 {
				for i := 0; i < nb; i++ {
					copy(pp[i], rp[i])
				}
			} else {
				beta = rho / rhoPrev
				for i := 0; i < nb; i++ {
					xpay(rs.locs[i], pp[i], rp[i], beta)
					r.AddFlops(int64(rs.locs[i].InteriorLen()))
				}
			}
			rhoPrev = rho
			r.Exchange(pp)
			var deltaL float64
			for i := 0; i < nb; i++ {
				// z = B·p fused with δ += ⟨p, z⟩.
				deltaL += rs.locs[i].ApplyAndMaskedDot(zz[i], pp[i])
				r.AddFlops(9 * int64(rs.locs[i].InteriorLen()))
				r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
			}
			payload[0] = deltaL
			delta := r.AllReduce(payload)[0]
			if delta <= 0 {
				break
			}
			alpha := rho / delta
			for i := 0; i < nb; i++ {
				axpy2(rs.locs[i], xs[i], pp[i], alpha, rr[i], zz[i], -alpha)
				r.AddFlops(2 * int64(rs.locs[i].InteriorLen()))
			}

			// Lanczos tridiagonal entry from the CG coefficients.
			if k == 1 {
				aL = append(aL, 1/alpha)
			} else {
				aL = append(aL, 1/alpha+beta/alphaPrev)
				bL = append(bL, math.Sqrt(beta)/alphaPrev)
			}
			alphaPrev = alpha

			tri, terr := linalg.NewSymTridiag(aL, bL)
			if terr != nil {
				break
			}
			nuK, muK := tri.ExtremeEigenvalues(0)
			conv := k > 1 && prevNu > 0 &&
				math.Abs(nuK-prevNu) <= eigTol*prevNu &&
				math.Abs(muK-prevMu) <= eigTol*prevMu
			prevNu, prevMu = nuK, muK
			if r.ID == 0 {
				lastNu, lastMu = nuK, muK
				nSteps = len(aL)
				eigTrace = append(eigTrace, EigBound{Step: len(aL), Nu: nuK, Mu: muK})
			}
			traceEigBound(r, len(aL), nuK, muK)
			if conv && !forced {
				break
			}
		}
	})
	if failure != nil {
		return 0, 0, 0, failure
	}
	if nSteps == 0 {
		return 0, 0, 0, fmt.Errorf("core: Lanczos produced no steps: %w", ErrEigEstimate)
	}
	s.Nu = lastNu * s.Opts.EigSafetyLow
	s.Mu = lastMu * s.Opts.EigSafetyHigh
	s.EigSteps = nSteps
	s.EigenStats = &st
	s.EigTrace = eigTrace
	return s.Nu, s.Mu, s.EigSteps, nil
}

// eigenProbe builds (once per session, then reuses) a deterministic
// pseudo-random masked vector whose spectral content covers every ocean
// mode. The probe depends only on the mask, which is fixed for the life of
// the session, so the cached copy is exact.
func (s *Session) eigenProbe() []float64 {
	if s.probeBuf != nil {
		return s.probeBuf
	}
	probe := make([]float64, s.G.N())
	for k, ocean := range s.Op.Mask {
		if ocean {
			x := uint64(k) + 0x9E3779B97F4A7C15
			x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			x = (x ^ (x >> 27)) * 0x94D049BB133111EB
			x ^= x >> 31
			probe[k] = float64(x>>11)/(1<<53) - 0.5
		}
	}
	s.probeBuf = probe
	return probe
}
