// Package core implements the paper's contribution: the barotropic solvers
// (ChronGear — Algorithm 1, classic PCG, and the preconditioned Classical
// Stiefel Iteration P-CSI — Algorithm 2) together with the preconditioners
// they are evaluated with (diagonal, the new block-EVP of §4, and a dense
// block-LU comparator), the CG-Lanczos estimation of the extreme
// eigenvalues of M⁻¹A that P-CSI needs, and the distributed solver Session
// that runs it all on the virtual-rank communication substrate.
package core

import (
	"fmt"
	"math"

	"repro/internal/decomp"
	"repro/internal/evp"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/stencil"
)

// PrecondType selects the preconditioner M. The zero value is the
// diagonal preconditioner — POP's default — so zero-initialized Options
// match POP's defaults (the same convention as Method).
type PrecondType int

const (
	// PrecondDiagonal is POP's default M = Λ(A).
	PrecondDiagonal PrecondType = iota
	// PrecondIdentity is M = I (no preconditioning; turns P-CSI into the
	// plain CSI solver of Hu et al. 2013).
	PrecondIdentity
	// PrecondEVP is the paper's block-Jacobi preconditioner with each
	// sub-block solved exactly by EVP marching (§4.3).
	PrecondEVP
	// PrecondBlockLU is the same block-Jacobi structure with dense LU
	// sub-block solves — the O(n⁴)-per-solve comparator of §4.1.
	PrecondBlockLU
)

// String returns the name used in experiment tables: p's first spelling in
// precondSpellings.
func (p PrecondType) String() string {
	if name, ok := spellingOf(precondSpellings, p); ok {
		return name
	}
	return fmt.Sprintf("PrecondType(%d)", int(p))
}

// Valid reports whether p is one of the defined preconditioner types — a
// value precondSpellings spells.
func (p PrecondType) Valid() bool {
	_, ok := spellingOf(precondSpellings, p)
	return ok
}

// Preconditioner applies M⁻¹ to the interior of one block's padded array.
// Implementations never read or write halo entries and keep the land
// invariant (solvers.go): they leave dst's land entries alone or copy
// src's there.
type Preconditioner interface {
	// Apply computes dst = M⁻¹·src on the interior; dst halo is untouched.
	Apply(dst, src []float64)
	// ApplyFlops is the per-application flop charge (paper accounting).
	ApplyFlops() int64
	// SetupFlops is the one-time preprocessing charge.
	SetupFlops() int64
}

// diagPrecond is a pointwise M⁻¹: it multiplies the ocean points by inv —
// 1/AC for POP's diagonal preconditioner, ones for the identity (x·1 = x
// bit for bit). Being pointwise, ChronGear fuses it into its update
// (fusedUpdatePrecond).
type diagPrecond struct {
	loc   *stencil.Local
	inv   []float64 // padded layout
	flops int64     // apply and setup charge: T_p = n²θ, 0 for the identity
}

func newDiagPrecond(loc *stencil.Local) *diagPrecond {
	inv := make([]float64, len(loc.AC))
	for k, v := range loc.AC {
		if v != 0 {
			inv[k] = 1 / v
		}
	}
	return &diagPrecond{loc: loc, inv: inv, flops: int64(loc.InteriorLen())}
}

// newIdentityPrecond is M = I (no preconditioning).
func newIdentityPrecond(loc *stencil.Local) *diagPrecond {
	inv := make([]float64, len(loc.AC))
	for k := range inv {
		inv[k] = 1
	}
	return &diagPrecond{loc: loc, inv: inv}
}

//pop:hotpath
func (p *diagPrecond) Apply(dst, src []float64) {
	for _, run := range p.loc.Runs {
		lo, n := run.Start, run.Len
		dr, sr, ir := dst[lo:][:n], src[lo:][:n], p.inv[lo:][:n]
		for i := range dr {
			dr[i] = sr[i] * ir[i]
		}
	}
}

func (p *diagPrecond) ApplyFlops() int64 { return p.flops }
func (p *diagPrecond) SetupFlops() int64 { return p.flops }

// subBlock is one tile of a block-Jacobi partition of a block interior.
type subBlock struct {
	x0, y0 int // offset within the block interior
	nx, ny int
}

// partitionInterior tiles an nxi×nyi interior into sub-blocks of side at
// most size, balancing tile dimensions to within one.
func partitionInterior(nxi, nyi, size int) []subBlock {
	cut := func(n int) []int {
		pieces := (n + size - 1) / size
		out := make([]int, pieces)
		for i := range out {
			out[i] = n / pieces
			if i < n%pieces {
				out[i]++
			}
		}
		return out
	}
	xs, ys := cut(nxi), cut(nyi)
	var blocks []subBlock
	y := 0
	for _, h := range ys {
		x := 0
		for _, w := range xs {
			blocks = append(blocks, subBlock{x0: x, y0: y, nx: w, ny: h})
			x += w
		}
		y += h
	}
	return blocks
}

// evpTile is one sub-block of the EVP partition with its solver.
type evpTile struct {
	subBlock
	sol      *evp.BlockSolver // nil for an all-land tile: identity there
	allOcean bool             // no land point: rows move by copy, unmasked
}

// evpPrecond is the paper's block-EVP preconditioner: block-Jacobi over
// small sub-blocks, each solved exactly by EVP marching on the land-filled
// operator, with land rows projected back to identity.
type evpPrecond struct {
	loc                    *stencil.Local
	tiles                  []evpTile
	psi, x                 []float64 // extended-domain scratch (max sub-block)
	applyFlops, setupFlops int64
	maxGrowth              float64 // largest marching growth among the tiles kept
}

// maxMarchGrowth bounds the acceptable EVP marching amplification: growth G
// leaves ~G·ε relative (non-symmetric) error in the block solve, and CG
// (ChronGear) stagnates once the residual reaches that error level — with
// POP's 1e−13 relative tolerance the bound must keep G·ε ≈ 1e−12, i.e.
// G ≲ 1e4. (P-CSI tolerates far larger G; this bound serves the weaker
// link.) Tiles that march hotter are split adaptively; one already 2×2 or
// smaller is kept whatever its growth, and maxGrowth records it.
const maxMarchGrowth = 1e4

// evpFillDepth is the artificial depth (m) given to land cells inside EVP
// blocks so marching has wet corners everywhere (see
// stencil.AssembleWindow); it must be ≤ the grid's minimum wet depth.
const evpFillDepth = 50

func newEVPPrecond(g *grid.Grid, phi float64, b *decomp.Block, loc *stencil.Local,
	size int) (*evpPrecond, error) {
	p := &evpPrecond{loc: loc}
	var sols []*evp.BlockSolver
	maxExt := 0
	h := loc.H
	// Work queue of candidate tiles; tiles whose marching growth is too
	// large (strong anisotropy amplifies round-off hugely, e.g. at
	// latitude-clamped rows) are split along their longer side and
	// retried — marching growth shrinks geometrically with tile size.
	queue := partitionInterior(b.NxI, b.NyI, size)
	for len(queue) > 0 {
		sb := queue[0]
		queue = queue[1:]
		ocean := 0
		for j := 0; j < sb.ny; j++ {
			for _, wet := range loc.Mask[(sb.y0+h+j)*loc.NxP+sb.x0+h:][:sb.nx] {
				if wet {
					ocean++
				}
			}
		}
		if ocean == 0 {
			p.tiles = append(p.tiles, evpTile{subBlock: sb})
			continue
		}
		win := stencil.AssembleWindow(g, phi, b.X0+sb.x0, b.Y0+sb.y0, sb.nx, sb.ny, evpFillDepth)
		// The tile is packed once: the growth check and the solver it then
		// gets share the march records.
		var sol *evp.BlockSolver
		pk, err := evp.Pack(win, false)
		if err == nil {
			growth := pk.Growth()
			if growth > maxMarchGrowth && (sb.nx > 2 || sb.ny > 2) {
				queue = append(queue, splitSub(sb)...)
				continue
			}
			p.maxGrowth = max(p.maxGrowth, growth)
			sol, err = pk.Solver()
		}
		if err != nil {
			return nil, fmt.Errorf("core: EVP sub-block at (%d,%d)+(%d,%d): %w",
				b.X0, b.Y0, sb.x0, sb.y0, err)
		}
		p.tiles = append(p.tiles, evpTile{subBlock: sb, sol: sol, allOcean: ocean == sb.nx*sb.ny})
		sols = append(sols, sol)
		p.applyFlops += sol.SolveFlops()
		p.setupFlops += sol.SetupFlops()
		if ext := (sb.nx + 2) * (sb.ny + 2); ext > maxExt {
			maxExt = ext
		}
	}
	evp.Compact(sols) // in the order Apply visits them
	p.psi = make([]float64, maxExt)
	p.x = make([]float64, maxExt)
	return p, nil
}

// splitSub halves a tile along its longer side.
func splitSub(sb subBlock) []subBlock {
	if sb.nx >= sb.ny {
		h1 := sb.nx / 2
		return []subBlock{
			{x0: sb.x0, y0: sb.y0, nx: h1, ny: sb.ny},
			{x0: sb.x0 + h1, y0: sb.y0, nx: sb.nx - h1, ny: sb.ny},
		}
	}
	h1 := sb.ny / 2
	return []subBlock{
		{x0: sb.x0, y0: sb.y0, nx: sb.nx, ny: h1},
		{x0: sb.x0, y0: sb.y0 + h1, nx: sb.nx, ny: sb.ny - h1},
	}
}

//pop:hotpath
func (p *evpPrecond) Apply(dst, src []float64) {
	loc := p.loc
	nxp, h := loc.NxP, loc.H
	for ti := range p.tiles {
		t := &p.tiles[ti]
		lo := (t.y0+h)*nxp + t.x0 + h // the tile's first point in the block
		if t.sol == nil {
			for j := 0; j < t.ny; j++ {
				copy(dst[lo+j*nxp:][:t.nx], src[lo+j*nxp:][:t.nx])
			}
			continue
		}
		// psi's ring is never cleared: the march reads psi at interior
		// points only, and every one of those is written below.
		exw := t.nx + 2
		psi := p.psi[:exw*(t.ny+2)]
		x := p.x[:exw*(t.ny+2)]
		if t.allOcean {
			for j := 0; j < t.ny; j++ {
				copy(psi[(j+1)*exw+1:][:t.nx], src[lo+j*nxp:][:t.nx])
			}
			t.sol.Solve(x, psi)
			for j := 0; j < t.ny; j++ {
				copy(dst[lo+j*nxp:][:t.nx], x[(j+1)*exw+1:][:t.nx])
			}
			continue
		}
		// Masked gather: land rows contribute zero RHS so the filled
		// operator's solution is driven by ocean residuals only.
		for j := 0; j < t.ny; j++ {
			pr := psi[(j+1)*exw+1:][:t.nx]
			sr := src[lo+j*nxp:][:t.nx]
			mr := loc.Mask[lo+j*nxp:][:t.nx]
			for i := range pr {
				pr[i] = pick(mr[i], sr[i], 0)
			}
		}
		t.sol.Solve(x, psi)
		// Masked scatter: land rows are identity.
		for j := 0; j < t.ny; j++ {
			xr := x[(j+1)*exw+1:][:t.nx]
			sr := src[lo+j*nxp:][:t.nx]
			dr := dst[lo+j*nxp:][:t.nx]
			mr := loc.Mask[lo+j*nxp:][:t.nx]
			for i := range dr {
				dr[i] = pick(mr[i], xr[i], sr[i])
			}
		}
	}
}

// pick returns a where wet and b elsewhere, bit for bit, without a branch:
// along a coastline the mask is as good as random, and a mispredicted
// branch per point cost a mixed tile half as much again as its solve.
func pick(wet bool, a, b float64) float64 {
	var m uint64
	if wet {
		m = 1
	}
	m = -m
	return math.Float64frombits(math.Float64bits(a)&m | math.Float64bits(b)&^m)
}

func (p *evpPrecond) ApplyFlops() int64 { return p.applyFlops }
func (p *evpPrecond) SetupFlops() int64 { return p.setupFlops }

// bluPrecond is block-Jacobi with dense LU solves of the true sub-blocks
// (including identity land rows) — the paper's cost comparator for EVP.
type bluPrecond struct {
	loc                    *stencil.Local
	subs                   []subBlock
	lus                    []*linalg.LU
	buf                    []float64
	applyFlops, setupFlops int64
}

func newBLUPrecond(b *decomp.Block, loc *stencil.Local, size int) (*bluPrecond, error) {
	p := &bluPrecond{loc: loc, subs: partitionInterior(b.NxI, b.NyI, size)}
	h := loc.H
	maxN := 0
	for _, sb := range p.subs {
		n := sb.nx * sb.ny
		m := linalg.NewDense(n, n)
		for j := 0; j < sb.ny; j++ {
			for i := 0; i < sb.nx; i++ {
				row := loc.Row(sb.x0+h+i, sb.y0+h+j)
				for o, off := range nineOffsets {
					ii, jj := i+off[0], j+off[1]
					if row[o] == 0 || ii < 0 || ii >= sb.nx || jj < 0 || jj >= sb.ny {
						continue
					}
					m.Set(j*sb.nx+i, jj*sb.nx+ii, row[o])
				}
			}
		}
		lu, err := linalg.Factor(m)
		if err != nil {
			return nil, fmt.Errorf("core: block-LU factorization failed: %w", err)
		}
		p.lus = append(p.lus, lu)
		p.applyFlops += int64(2 * n * n)         // triangular solves
		p.setupFlops += int64(2 * n * n * n / 3) // factorization
		if n > maxN {
			maxN = n
		}
	}
	p.buf = make([]float64, maxN)
	return p, nil
}

// nineOffsets matches stencil row order [SW,S,SE,W,C,E,NW,N,NE].
var nineOffsets = [9][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {0, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

//pop:hotpath
func (p *bluPrecond) Apply(dst, src []float64) {
	loc := p.loc
	nxp, h := loc.NxP, loc.H
	for si, sb := range p.subs {
		buf := p.buf[:sb.nx*sb.ny]
		for j := 0; j < sb.ny; j++ {
			lbase := (sb.y0+h+j)*nxp + sb.x0 + h
			copy(buf[j*sb.nx:(j+1)*sb.nx], src[lbase:lbase+sb.nx])
		}
		p.lus[si].Solve(buf)
		// Masked scatter, as EVP's: the LU's land entries are src's +0 only
		// while the block is finite, and one NaN in it turns them all NaN.
		for j := 0; j < sb.ny; j++ {
			lbase := (sb.y0+h+j)*nxp + sb.x0 + h
			br := buf[j*sb.nx:][:sb.nx]
			sr := src[lbase:][:sb.nx]
			dr := dst[lbase:][:sb.nx]
			mr := loc.Mask[lbase:][:sb.nx]
			for i := range dr {
				dr[i] = pick(mr[i], br[i], sr[i])
			}
		}
	}
}

func (p *bluPrecond) ApplyFlops() int64 { return p.applyFlops }
func (p *bluPrecond) SetupFlops() int64 { return p.setupFlops }
