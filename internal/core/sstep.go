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
// matrix well-conditioned at s = SStepBlock. Basis-degeneracy is still
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

// SStepBlock is the s-step block size s: matrix-vector products batched
// between global reductions, so a converged solve performs at most
// ceil(iters/s)+1 reductions. Four is the cheapest s priced on Yellowstone
// at 1° on 676 ranks, or within 2% of it: popbench -exp sstep (EVP) prices
// s = 1/2/4/8 at 11.18/6.77/5.363/5.350 ms per solve; popsolve's smooth
// right-hand side prices s = 8 1.1% under s = 4 with the diagonal
// preconditioner and 8% over it with EVP (176 iterations against 156). The
// closed forms (perfmodel.EqSStepDiag/EVP) put s = 4 within 2% of the
// cheapest s wherever s-step beats ChronGear, while the Chebyshev-basis
// Gram solve loses digits as s grows (D'Ambra et al., 2603.09790): s = 8
// plateaued on thin blocks that s = 4 solves.
const SStepBlock = 4

// sstepBasisTop places the top of the Chebyshev basis interval relative to
// the largest Ritz value (bind).
const sstepBasisTop = 0.95

// Per-direction field names, precomputed so the solve loop never builds a
// string (the session field map is keyed by name).
var sstepVName, sstepQName, sstepPName, sstepAName [SStepBlock]string

func init() {
	for j := range SStepBlock {
		sstepVName[j] = "sstep.v" + strconv.Itoa(j)
		sstepQName[j] = "sstep.q" + strconv.Itoa(j)
		sstepPName[j] = "sstep.p" + strconv.Itoa(j)
		sstepAName[j] = "sstep.ap" + strconv.Itoa(j)
	}
}

// sstep is the s-step recurrence: blocks of SStepBlock Chebyshev-basis
// matrix-vector products between single fused global reductions. Its step
// is a block of s iterations and every step carries a check, on the block's
// *entering* residual — the check rides the block's one mandatory
// reduction, so detection lags the true convergence point by up to s−1
// iterations but costs zero extra communication. ‖b‖² rides the first
// block's reduction too.
//
// The block recurrence's attainable accuracy is bounded by the basis
// conditioning: in finite precision the recursive residual drifts from
// b − A·x and can plateau above the target (TestSStepReplacementRescuesDrift
// pins one such plateau). The driver's drift watch answers with one
// residual replacement (s+1 halo'd matvecs, zero extra reductions, and k
// still advances so the ceil(iters/s)+1 reduction bound holds), and when
// even the replaced residual cannot improve the solve gives up rather than
// spinning to MaxIters.
type sstep struct {
	gamma, invDelta, twoInvDelta float64 // Chebyshev basis: centre γ, half-width δ of [ν, μ]

	ww [][]float64
	// Direction-block field groups. vv/qq double as the basis (V, Q=AV)
	// during the build and as the *next* P/AP during the update — the
	// update writes P = V + P_prev·B into the vv slots, then the slices
	// swap, so no block-sized copies happen anywhere in the loop.
	vv, qq, pp, aps [SStepBlock][][]float64

	first bool // no previous direction block yet
	force bool // the next block must restart the recurrence (P = V)
	fromV bool // this block restarts it: P = V (decided in observe, applied in advance)

	// Dense rank-local scratch for the (s×s) Gram arithmetic; tiny and
	// identical on every rank because it is computed from reduced values
	// only.
	gm, cm, bm, um, tm, wPrev, wFac [SStepBlock * SStepBlock]float64 // G, C, B, W_prev·B, W_new, W_prev and its factor
	mvec, avec, col                 [SStepBlock]float64
}

// sstepOffC and sstepOffM are offC and offM of the fused reduction's
// layout (sstepShape).
const (
	sstepOffC = SStepBlock * (SStepBlock + 1) / 2
	sstepOffM = sstepOffC + SStepBlock*SStepBlock
)

// sstepShape lays out the block's fused reduction:
//
//	[0    : offC)      upper triangle of G, row-major, G[i][j] = ⟨v_i, q_j⟩
//	[offC : offM)      C[i][j] = ⟨A·p_i, v_j⟩ (zero on the first block)
//	[offM : offM+s)    m[i] = ⟨v_i, r⟩
//
// followed by the driver's tail.
func sstepShape(Options) shape {
	return shape{width: sstepOffM + SStepBlock, span: SStepBlock,
		rides: true, recursive: true, drift: true}
}

func (c *sstep) bind(l *loop) {
	// The basis is scaled on [ν, 0.95·θ_max], where θ_max = μ/eigSafetyHigh
	// is the largest Ritz value: unlike P-CSI's iteration, the basis does not
	// need an interval that brackets the spectrum. A mode at the interval's
	// end has T_j = 1 in every column, so with a converged θ_max under μ the
	// top modes make the columns nearly dependent and an s = 8 Gram system
	// lost the last digits; 5% inside, T_8 at λ_max is ≈ 17 and the columns
	// separate. Measured on 12 right-hand sides (test grid, diagonal, s = 8)
	// the bracketing μ took 40–272 iterations, 0.95·θ_max 40–80.
	mu := sstepBasisTop * l.s.Mu / eigSafetyHigh
	c.gamma = (mu + l.s.Nu) / 2
	delta := (mu - l.s.Nu) / 2
	c.invDelta, c.twoInvDelta = 1/delta, 2/delta
	c.ww = l.field("sstep.w")
	for j := range SStepBlock {
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
	const sv = SStepBlock
	r, rs := l.r, l.rs
	vv, qq := &c.vv, &c.qq
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
		clear(p[sstepOffC:sstepOffM])
	} else {
		for i := 0; i < sv; i++ {
			for j := 0; j < sv; j++ {
				p[sstepOffC+i*sv+j] = stageDot(r, rs, c.aps[i], vv[j])
			}
		}
	}
	for i := 0; i < sv; i++ {
		p[sstepOffM+i] = stageDot(r, rs, vv[i], l.rr)
	}
	return nil, true, stageDot(r, rs, l.rr, l.rr)
}

// observe is the block recurrence on reduced values: rank-local, identical
// on every rank. A failed Cholesky factorization of W_new means the
// previous direction block has degenerated — restart the recurrence (P = V,
// W = G) rather than divide through it.
func (c *sstep) observe(l *loop, g []float64, rn float64) verdict {
	const sv = SStepBlock
	gm, cm, bm, um, tm := &c.gm, &c.cm, &c.bm, &c.um, &c.tm
	idx := 0
	for i := 0; i < sv; i++ {
		for j := i; j < sv; j++ {
			gm[i*sv+j] = g[idx]
			gm[j*sv+i] = g[idx]
			idx++
		}
	}
	copy(cm[:], g[sstepOffC:sstepOffM])
	copy(c.mvec[:], g[sstepOffM:])

	c.fromV = c.first || c.force
	c.force = false
	if !c.fromV {
		for j := 0; j < sv; j++ { // B = −W_prev⁻¹·C, column by column
			for i := 0; i < sv; i++ {
				c.col[i] = cm[i*sv+j]
			}
			cholSolve(c.wFac[:], sv, c.col[:])
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
		c.wFac = *tm
		if cholFactor(c.wFac[:], sv) {
			c.wPrev = *tm
		} else {
			c.fromV = true
		}
	}
	if c.fromV {
		c.wFac = *gm
		if !cholFactor(c.wFac[:], sv) {
			// Even the fresh basis is degenerate: the Krylov space ran out
			// before the block did (a one-cell ocean's is one-dimensional),
			// or r is at rounding level. Take the basis' first column alone —
			// a preconditioned steepest-descent step — and restart the next
			// block from P = V. With no first column either (r' = 0 or
			// non-finite) no further progress is possible.
			if !(gm[0] > 0) {
				return stop
			}
			c.avec = [SStepBlock]float64{c.mvec[0] / gm[0]}
			c.force = true
			return proceed
		}
		c.wPrev = *gm
	}
	c.avec = c.mvec // a = W⁻¹·m
	cholSolve(c.wFac[:], sv, c.avec[:])
	return proceed
}

func (c *sstep) advance(l *loop, g []float64) {
	const sv = SStepBlock
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
	c.pp, c.vv = c.vv, c.pp // P = V (+ P_prev·B), AP = Q: slice-header swaps, no field copy
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
	l.k += SStepBlock
	return nil
}
