package core

import "strconv"

// Communication-avoiding s-step PCG with a Chebyshev basis.
//
// ChronGear pays one global reduction per iteration and P-CSI removes inner
// products but still reduces every CheckEvery iterations; the s-step solver
// attacks the reduction *cadence* directly (ROADMAP item 1, after D'Ambra
// et al.): each outer block builds s preconditioned matrix-vector products —
// s halo exchanges, zero reductions — then assembles every inner product the
// next s CG iterations need into ONE fused AllReduce, solves the small Gram
// system rank-locally, and advances x and r by the block recurrence. A
// converged solve therefore performs exactly ceil(iters/s)+1 global
// reductions (the +1 is the final block whose entering residual proves
// convergence; ‖b‖² rides the first reduction rather than paying its own).
//
// The monomial basis [M⁻¹r, (M⁻¹A)M⁻¹r, …] loses linear independence in
// floating point by s ≈ 4; the basis here is the scaled-and-shifted
// Chebyshev recurrence over the session's Lanczos spectrum estimate [ν, μ]
// (the same estimate P-CSI irons its iteration with), which keeps the Gram
// matrix well-conditioned through MaxSStep. Basis-degeneracy is still
// detected — a Cholesky pivot loss in the Gram factorization — and answered
// by restarting the block recurrence (dropping the previous direction
// block), never by dividing through a bad pivot.
//
// The recurrence follows Chronopoulos & Gear: with V the basis block,
// Q = A·V, and P_prev the previous direction block with W_prev = P_prevᵀAP_prev,
//
//	B = −W_prev⁻¹·C       where C[i][j] = ⟨A·p_i, v_j⟩
//	P  = V + P_prev·B      (A-orthogonal to P_prev)
//	W  = G + BᵀC + CᵀB + BᵀW_prev·B   where G[i][j] = ⟨v_i, A·v_j⟩
//	a  = W⁻¹·m             where m[i] = ⟨v_i, r⟩  (P_prevᵀr = 0 exactly)
//	x += P·a,  r −= (A·P)·a
//
// All dense arithmetic runs on *reduced* values, so it is bit-identical on
// every rank by construction — no rank-local verdict ever steers a
// collective.

// MaxSStep is the largest supported s-step block size, and every boundary
// (NewSession, the api parser, the frame decoder, the serve key normalizer)
// rejects a larger one with ErrBadSpec. Eight is the largest s whose
// Chebyshev-basis Gram solve still reaches POP's 1e-13 here with both the
// diagonal and EVP preconditioners; at s = 16 the Gram matrix loses the
// digits (D'Ambra et al., 2603.09790) and the solve stalls at 1e-11 to
// 1e-9, so it is refused rather than accepted and left to fail.
const MaxSStep = 8

// DefaultSStep is the block size a zero Options.SStep selects — the one
// definition the serve pool's key normalizer shares, so a pool label can
// never disagree with the session it names.
const DefaultSStep = 4

// sstepBasisTop places the top of the Chebyshev basis interval relative to
// the largest Ritz value (bind).
const sstepBasisTop = 0.95

// Per-direction field names, precomputed so the solve loop never builds a
// string (the session field map is keyed by name).
var sstepVName, sstepQName, sstepPName, sstepAName [MaxSStep]string

func init() {
	for j := 0; j < MaxSStep; j++ {
		sstepVName[j] = "sstep.v" + strconv.Itoa(j)
		sstepQName[j] = "sstep.q" + strconv.Itoa(j)
		sstepPName[j] = "sstep.p" + strconv.Itoa(j)
		sstepAName[j] = "sstep.ap" + strconv.Itoa(j)
	}
}

// sstep is the s-step recurrence: blocks of Options.SStep Chebyshev-basis
// matrix-vector products between single fused global reductions. Its step
// is a block of s iterations and every step carries a check, on the block's
// *entering* residual — the check rides the block's one mandatory
// reduction, so detection lags the true convergence point by up to s−1
// iterations but costs zero extra communication. ‖b‖² rides the first
// block's reduction too.
//
// The block recurrence's attainable accuracy is bounded by the basis
// conditioning: in finite precision the recursive residual drifts from
// b − A·x and can plateau above the target (seen at s=8 with the diagonal
// preconditioner on warm-started model steps). The driver's drift watch
// answers with one residual replacement (s+1 halo'd matvecs, zero extra
// reductions, and k still advances so the ceil(iters/s)+1 reduction bound
// holds), and when even the replaced residual cannot improve the solve
// gives up rather than spinning to MaxIters.
type sstep struct {
	s                            int
	gamma, invDelta, twoInvDelta float64 // Chebyshev basis: centre γ, half-width δ of [ν, μ]
	offC, offM                   int     // payload layout, see sstepShape

	ww [][]float64
	// Direction-block field groups. vv/qq double as the basis (V, Q=AV)
	// during the build and as the *next* P/AP during the update — the
	// update writes P = V + P_prev·B into the vv slots, then the slices
	// swap, so no block-sized copies happen anywhere in the loop.
	vv, qq, pp, aps [][][]float64

	first bool // no previous direction block yet
	force bool // the next block must restart the recurrence (P = V)
	fromV bool // this block restarts it: P = V (decided in observe, applied in advance)

	// Dense rank-local scratch for the (s×s) Gram arithmetic; tiny
	// (≤ MaxSStep² doubles each) and identical on every rank because it is
	// computed from reduced values only.
	gm, cm, bm, um, tm, wPrev, wFac []float64 // G, C, B, W_prev·B, W_new, W_prev and its factor
	mvec, avec, col                 []float64
}

// sstepShape lays out the block's fused reduction:
//
//	[0    : offC)      upper triangle of G, row-major, G[i][j] = ⟨v_i, q_j⟩
//	[offC : offM)      C[i][j] = ⟨A·p_i, v_j⟩ (zero on the first block)
//	[offM : offM+s)    m[i] = ⟨v_i, r⟩
//
// followed by the driver's tail.
func sstepShape(o Options) shape {
	sv := o.SStep
	return shape{width: sv*(sv+1)/2 + sv*sv + sv, span: sv,
		rides: true, recursive: true, drift: true}
}

func (c *sstep) bind(l *loop) {
	sv := l.s.Opts.SStep
	if c.s != sv { // first bind on this rank: the session's s never changes
		c.s = sv
		c.offC = sv * (sv + 1) / 2
		c.offM = c.offC + sv*sv
		group := func() [][][]float64 { return make([][][]float64, sv) }
		c.vv, c.qq, c.pp, c.aps = group(), group(), group(), group()
		mat := func() []float64 { return make([]float64, sv*sv) }
		c.gm, c.cm, c.bm, c.um, c.tm, c.wPrev, c.wFac = mat(), mat(), mat(), mat(), mat(), mat(), mat()
		c.mvec, c.avec, c.col = make([]float64, sv), make([]float64, sv), make([]float64, sv)
	}
	// The basis is scaled on [ν, 0.95·θ_max], where θ_max = μ/EigSafetyHigh
	// is the largest Ritz value: unlike P-CSI's iteration, the basis does not
	// need an interval that brackets the spectrum. A mode at the interval's
	// end has T_j = 1 in every column, so with a converged θ_max under μ the
	// top modes make the columns nearly dependent and the s = 8 Gram system
	// loses the last digits; 5% inside, T_8 at λ_max is ≈ 17 and the columns
	// separate. Measured on 12 right-hand sides (test grid, diagonal, s = 8)
	// the bracketing μ took 40–272 iterations, 0.95·θ_max 40–80.
	mu := sstepBasisTop * l.s.Mu / l.s.Opts.EigSafetyHigh
	c.gamma = (mu + l.s.Nu) / 2
	delta := (mu - l.s.Nu) / 2
	c.invDelta, c.twoInvDelta = 1/delta, 2/delta
	c.ww = l.field("sstep.w")
	for j := 0; j < sv; j++ {
		c.vv[j] = l.field(sstepVName[j])
		c.qq[j] = l.field(sstepQName[j])
		c.pp[j] = l.field(sstepPName[j])
		c.aps[j] = l.field(sstepAName[j])
	}
	c.first, c.force = true, false
}

func (c *sstep) begin(l *loop, st int) [][]float64 { return nil }

// local builds the basis — v₀ = M⁻¹r, then the Chebyshev three-term
// recurrence on the preconditioned operator: s halo exchanges (one before
// each matvec, stage j+1 computing q_j = A·v_j), zero reductions — and then
// packs every inner product of the block into the one payload.
func (c *sstep) local(l *loop, st int, p []float64) ([][]float64, bool, float64) {
	r, rs, sv := l.r, l.rs, c.s
	vv, qq := c.vv, c.qq
	if st == 0 {
		stagePrecond(r, rs, vv[0], l.rr)
		return vv[0], false, 0
	}
	if j := st - 1; j < sv {
		stageApply(r, rs, qq[j], vv[j])
		if j+1 < sv {
			stagePrecond(r, rs, c.ww, qq[j])
			for i, loc := range rs.locs {
				if j == 0 {
					chebBasisFirst(loc, vv[1][i], c.ww[i], vv[0][i], c.gamma, c.invDelta)
					r.AddFlops(2 * int64(loc.InteriorLen()))
				} else {
					chebBasisNext(loc, vv[j+1][i], c.ww[i], vv[j][i], vv[j-1][i], c.gamma, c.twoInvDelta)
					r.AddFlops(3 * int64(loc.InteriorLen()))
				}
			}
			return vv[j+1], false, 0
		}
	}
	// Gram assembly: every inner product the block recurrence needs, packed
	// into the one payload.
	idx := 0
	for i := 0; i < sv; i++ {
		for j := i; j < sv; j++ {
			p[idx] = stageDot(r, rs, vv[i], qq[j])
			idx++
		}
	}
	if c.first {
		clear(p[c.offC:c.offM])
	} else {
		for i := 0; i < sv; i++ {
			for j := 0; j < sv; j++ {
				p[c.offC+i*sv+j] = stageDot(r, rs, c.aps[i], vv[j])
			}
		}
	}
	for i := 0; i < sv; i++ {
		p[c.offM+i] = stageDot(r, rs, vv[i], l.rr)
	}
	return nil, true, stageDot(r, rs, l.rr, l.rr)
}

// observe is the block recurrence on reduced values: rank-local, identical
// on every rank. A failed Cholesky factorization of W_new means the
// previous direction block has degenerated — restart the recurrence (P = V,
// W = G) rather than divide through it.
func (c *sstep) observe(l *loop, g []float64, rn float64) verdict {
	sv := c.s
	gm, cm, bm, um, tm := c.gm, c.cm, c.bm, c.um, c.tm
	idx := 0
	for i := 0; i < sv; i++ {
		for j := i; j < sv; j++ {
			gm[i*sv+j] = g[idx]
			gm[j*sv+i] = g[idx]
			idx++
		}
	}
	copy(cm, g[c.offC:c.offM])
	copy(c.mvec, g[c.offM:])

	c.fromV = c.first || c.force
	c.force = false
	if !c.fromV {
		for j := 0; j < sv; j++ { // B = −W_prev⁻¹·C, column by column
			for i := 0; i < sv; i++ {
				c.col[i] = cm[i*sv+j]
			}
			cholSolve(c.wFac, sv, c.col)
			for i := 0; i < sv; i++ {
				bm[i*sv+j] = -c.col[i]
			}
		}
		for i := 0; i < sv; i++ { // um = W_prev·B
			for j := 0; j < sv; j++ {
				var v float64
				for k := 0; k < sv; k++ {
					v += c.wPrev[i*sv+k] * bm[k*sv+j]
				}
				um[i*sv+j] = v
			}
		}
		for i := 0; i < sv; i++ { // W_new = G + BᵀC + CᵀB + Bᵀ(W_prev·B)
			for j := 0; j < sv; j++ {
				v := gm[i*sv+j]
				for k := 0; k < sv; k++ {
					v += bm[k*sv+i]*cm[k*sv+j] + cm[k*sv+i]*bm[k*sv+j] + bm[k*sv+i]*um[k*sv+j]
				}
				tm[i*sv+j] = v
			}
		}
		copy(c.wFac, tm)
		if cholFactor(c.wFac, sv) {
			copy(c.wPrev, tm)
		} else {
			c.fromV = true
		}
	}
	if c.fromV {
		copy(c.wFac, gm)
		if !cholFactor(c.wFac, sv) {
			// Even the fresh basis is degenerate: the Krylov space ran out
			// before the block did (a one-cell ocean's is one-dimensional),
			// or r is at rounding level. Take the basis' first column alone —
			// a preconditioned steepest-descent step — and restart the next
			// block from P = V. With no first column either (r' = 0 or
			// non-finite) no further progress is possible.
			if !(gm[0] > 0) {
				return stop
			}
			clear(c.avec)
			c.avec[0] = c.mvec[0] / gm[0]
			c.force = true
			return proceed
		}
		copy(c.wPrev, gm)
	}
	copy(c.avec, c.mvec) // a = W⁻¹·m
	cholSolve(c.wFac, sv, c.avec)
	return proceed
}

func (c *sstep) advance(l *loop, g []float64) {
	sv := c.s
	if !c.fromV {
		for j := 0; j < sv; j++ { // P = V + P_prev·B into the vv slots
			for i := 0; i < sv; i++ {
				b := c.bm[i*sv+j]
				for blk, loc := range l.rs.locs {
					axpy2(loc, c.vv[j][blk], c.pp[i][blk], b, c.qq[j][blk], c.aps[i][blk], b)
					l.r.AddFlops(2 * int64(loc.InteriorLen()))
				}
			}
		}
	}
	c.pp, c.vv = c.vv, c.pp // P = V (+ P_prev·B), AP = Q: slice-header swaps, no copy
	c.aps, c.qq = c.qq, c.aps
	for j := 0; j < sv; j++ { // x += P·a, r −= (A·P)·a
		for blk, loc := range l.rs.locs {
			axpy2(loc, l.x[blk], c.pp[j][blk], c.avec[j], l.rr[blk], c.aps[j][blk], -c.avec[j])
			l.r.AddFlops(2 * int64(loc.InteriorLen()))
		}
	}
	l.k += sv
	c.first = false
}

// restart discards the block in flight — its basis matvecs were spent, so
// its s iterations still count and the ceil(iters/s)+1 reduction bound
// holds — and makes the next block start from P = V.
func (c *sstep) restart(l *loop, st int) [][]float64 {
	c.force = true
	l.k += c.s
	return nil
}
