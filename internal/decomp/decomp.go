// Package decomp implements POP-style block domain decomposition: the global
// grid is divided into rectangular blocks, blocks containing no ocean points
// are eliminated (the paper's "land ratio"), and the surviving blocks are
// assigned to ranks along a space-filling curve for locality — the strategy
// POP inherits from Dennis's inverse SFC partitioning (paper §7).
//
// Each rank owns one or more blocks, padded with a halo of width
// DefaultHalo (why one ring where POP keeps two, and how the clock still
// charges POP's two: internal/comm's popHalo).
package decomp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/grid"
	"repro/internal/stencil"
)

// DefaultHalo is the halo width every session uses: the nine-point
// stencil's reach.
const DefaultHalo = 1

// Block is one rectangular tile of the global domain.
type Block struct {
	ID     int  // index into Decomposition.Blocks
	BI, BJ int  // coordinates in the block grid
	X0, Y0 int  // global T-point coordinates of the interior origin
	NxI    int  // interior width (edge blocks may be narrower)
	NyI    int  // interior height
	Land   bool // true when the block contains no ocean point (eliminated)
	Rank   int  // owning rank; −1 for eliminated blocks
}

// Decomposition is a block layout of a grid plus the block→rank assignment.
type Decomposition struct {
	// G is the grid being decomposed.
	G                *grid.Grid
	BlockNx, BlockNy int // nominal block dimensions
	MX, MY           int // block-grid dimensions
	// Halo is the ghost-cell width around each block.
	Halo int
	// Blocks lists every block of the MX×MY layout, land included.
	Blocks      []Block
	OceanBlocks []int   // IDs of non-eliminated blocks, SFC order
	NRanks      int     // 0 until Assign is called
	ByRank      [][]int // block IDs owned by each rank
}

// New divides g into blocks of nominal size bx×by with the given halo width
// and eliminates all-land blocks. Call Assign (or AssignOnePerRank) before
// using the decomposition with the communication runtime.
func New(g *grid.Grid, bx, by, halo int) (*Decomposition, error) {
	if bx <= 0 || by <= 0 {
		return nil, fmt.Errorf("decomp: non-positive block size %d×%d", bx, by)
	}
	if halo < 1 {
		return nil, fmt.Errorf("decomp: halo must be ≥ 1, got %d", halo)
	}
	if bx < halo || by < halo {
		return nil, fmt.Errorf("decomp: block size %d×%d smaller than halo %d", bx, by, halo)
	}
	d := &Decomposition{
		G:       g,
		BlockNx: bx, BlockNy: by,
		MX:   (g.Nx + bx - 1) / bx,
		MY:   (g.Ny + by - 1) / by,
		Halo: halo,
	}
	d.Blocks = make([]Block, d.MX*d.MY)
	for bj := 0; bj < d.MY; bj++ {
		for bi := 0; bi < d.MX; bi++ {
			id := bj*d.MX + bi
			b := Block{
				ID: id, BI: bi, BJ: bj,
				X0: bi * bx, Y0: bj * by,
				NxI:  min(bx, g.Nx-bi*bx),
				NyI:  min(by, g.Ny-bj*by),
				Rank: -1,
			}
			b.Land = allLand(g, b)
			d.Blocks[id] = b
		}
	}
	// Order surviving blocks along a Hilbert curve over the block grid.
	for _, id := range hilbertOrder(d.MX, d.MY) {
		if !d.Blocks[id].Land {
			d.OceanBlocks = append(d.OceanBlocks, id)
		}
	}
	return d, nil
}

func allLand(g *grid.Grid, b Block) bool {
	for j := b.Y0; j < b.Y0+b.NyI; j++ {
		for i := b.X0; i < b.X0+b.NxI; i++ {
			if g.Mask[g.Idx(i, j)] {
				return false
			}
		}
	}
	return true
}

// LandRatio returns the fraction of blocks eliminated as all-land.
func (d *Decomposition) LandRatio() float64 {
	return 1 - float64(len(d.OceanBlocks))/float64(len(d.Blocks))
}

// Assign distributes the ocean blocks over nranks ranks in contiguous runs
// of the space-filling-curve order, balancing block counts to within one.
func (d *Decomposition) Assign(nranks int) error {
	nb := len(d.OceanBlocks)
	if nranks <= 0 || nranks > nb {
		return fmt.Errorf("decomp: cannot assign %d ocean blocks to %d ranks", nb, nranks)
	}
	d.NRanks = nranks
	d.ByRank = make([][]int, nranks)
	for pos, id := range d.OceanBlocks {
		r := pos * nranks / nb
		d.Blocks[id].Rank = r
		d.ByRank[r] = append(d.ByRank[r], id)
	}
	return nil
}

// AssignOnePerRank gives every ocean block its own rank — the typical
// high-resolution POP configuration the paper assumes in §2.2 — and returns
// the resulting rank count.
func (d *Decomposition) AssignOnePerRank() int {
	if err := d.Assign(len(d.OceanBlocks)); err != nil {
		panic(err) // unreachable: nranks == len(OceanBlocks) ≥ 1
	}
	return d.NRanks
}

// NeighborID returns the block ID at block-grid offset (di,dj) from b, or −1
// when it is outside the block grid or eliminated as land.
func (d *Decomposition) NeighborID(b *Block, di, dj int) int {
	bi, bj := b.BI+di, b.BJ+dj
	if bi < 0 || bi >= d.MX || bj < 0 || bj >= d.MY {
		return -1
	}
	id := bj*d.MX + bi
	if d.Blocks[id].Land {
		return -1
	}
	return id
}

// ChooseBlocking searches for a block size with the requested aspect ratio
// (ax:ay, e.g. 3:2 as in the paper's 0.1° runs) whose ocean-block count is
// as close as possible to targetCores. It returns the block dimensions and
// the resulting core (ocean block) count.
//
// Counting uses a one-pass prefix sum of the ocean mask, so evaluating a
// candidate costs O(blocks), and only a window of candidates around the
// analytic estimate c ≈ √(wet·N/(ax·ay·target)) is scanned — on the 0.1°
// grid this is the difference between sub-second and tens of minutes.
func ChooseBlocking(g *grid.Grid, targetCores, ax, ay int) (bx, by, cores int, err error) {
	if targetCores <= 0 {
		return 0, 0, 0, fmt.Errorf("decomp: non-positive target core count %d", targetCores)
	}
	pre := maskPrefixFor(g)
	cMax := min(g.Nx/ax, g.Ny/ay)
	if cMax < 1 {
		return 0, 0, 0, fmt.Errorf("decomp: no feasible %d:%d blocking for %d×%d grid", ax, ay, g.Nx, g.Ny)
	}
	est := int(math.Sqrt(g.OceanFraction() * float64(g.Nx*g.Ny) / float64(ax*ay*targetCores)))
	lo, hi := est/2, est*2+2
	if lo < 1 {
		lo = 1
	}
	if hi > cMax {
		hi = cMax
	}
	if lo > cMax {
		lo = cMax
	}
	bestDiff := -1
	for c := lo; c <= hi; c++ {
		tbx, tby := ax*c, ay*c
		n := pre.oceanBlocks(g, tbx, tby)
		diff := n - targetCores
		if diff < 0 {
			diff = -diff
		}
		if bestDiff < 0 || diff < bestDiff {
			bestDiff, bx, by, cores = diff, tbx, tby, n
		}
	}
	if bestDiff < 0 {
		return 0, 0, 0, fmt.Errorf("decomp: no feasible blocking for %d×%d grid", g.Nx, g.Ny)
	}
	return bx, by, cores, nil
}

// maskPrefix is a 2-D inclusive prefix sum of the ocean mask; entry
// (i+1, j+1) holds the count of ocean points in [0,i]×[0,j].
type maskPrefix struct {
	nx  int // = g.Nx+1
	sum []int32
}

func newMaskPrefix(g *grid.Grid) *maskPrefix {
	nx := g.Nx + 1
	p := &maskPrefix{nx: nx, sum: make([]int32, nx*(g.Ny+1))}
	for j := 0; j < g.Ny; j++ {
		var row int32
		for i := 0; i < g.Nx; i++ {
			if g.Mask[j*g.Nx+i] {
				row++
			}
			p.sum[(j+1)*nx+i+1] = p.sum[j*nx+i+1] + row
		}
	}
	return p
}

// rectOcean counts ocean points in [x0,x1)×[y0,y1).
func (p *maskPrefix) rectOcean(x0, y0, x1, y1 int) int32 {
	return p.sum[y1*p.nx+x1] - p.sum[y0*p.nx+x1] - p.sum[y1*p.nx+x0] + p.sum[y0*p.nx+x0]
}

// oceanBlocks counts the non-all-land blocks of a bx×by tiling.
func (p *maskPrefix) oceanBlocks(g *grid.Grid, bx, by int) int {
	n := 0
	for y0 := 0; y0 < g.Ny; y0 += by {
		y1 := min(y0+by, g.Ny)
		for x0 := 0; x0 < g.Nx; x0 += bx {
			if p.rectOcean(x0, y0, min(x0+bx, g.Nx), y1) > 0 {
				n++
			}
		}
	}
	return n
}

// per-grid prefix cache: grids are immutable after generation and few.
var (
	prefixMu    sync.Mutex
	prefixCache = map[*grid.Grid]*maskPrefix{}
)

func maskPrefixFor(g *grid.Grid) *maskPrefix {
	prefixMu.Lock()
	defer prefixMu.Unlock()
	if p, ok := prefixCache[g]; ok {
		return p
	}
	p := newMaskPrefix(g)
	prefixCache[g] = p
	return p
}

// PaddedDims returns the padded (halo-included) dimensions of block b.
func (d *Decomposition) PaddedDims(b *Block) (nxp, nyp int) {
	return b.NxI + 2*d.Halo, b.NyI + 2*d.Halo
}

// LocalOperator extracts the nine-point operator restricted to block b,
// including coefficients in the halo ring (zero outside the global domain).
func (d *Decomposition) LocalOperator(op *stencil.Operator, b *Block) *stencil.Local {
	h := d.Halo
	nxp, nyp := d.PaddedDims(b)
	l := &stencil.Local{
		NxP: nxp, NyP: nyp, H: h,
		AC:   make([]float64, nxp*nyp),
		AN:   make([]float64, nxp*nyp),
		AE:   make([]float64, nxp*nyp),
		ANE:  make([]float64, nxp*nyp),
		Mask: make([]bool, nxp*nyp),
	}
	for j := 0; j < nyp; j++ {
		gj := b.Y0 - h + j
		if gj < 0 || gj >= op.Ny {
			continue
		}
		for i := 0; i < nxp; i++ {
			gi := b.X0 - h + i
			if gi < 0 || gi >= op.Nx {
				continue
			}
			kl := j*nxp + i
			kg := gj*op.Nx + gi
			l.AC[kl] = op.AC[kg]
			l.AN[kl] = op.AN[kg]
			l.AE[kl] = op.AE[kg]
			l.ANE[kl] = op.ANE[kg]
			l.Mask[kl] = op.Mask[kg]
		}
	}
	l.InitRuns()
	return l
}

// Scatter copies a global field into a freshly allocated padded local array
// for block b, filling halo entries from the global field where they exist
// (so no initial halo exchange is needed) and zero outside the domain.
func (d *Decomposition) Scatter(global []float64, b *Block) []float64 {
	nxp, nyp := d.PaddedDims(b)
	loc := make([]float64, nxp*nyp)
	d.ScatterInto(loc, global, b)
	return loc
}

// ScatterInto is Scatter into a caller-owned padded array of size
// PaddedDims(b), overwriting every entry (out-of-domain positions are
// zeroed) — the allocation-free form the solvers use to refill session
// workspaces per solve.
func (d *Decomposition) ScatterInto(dst, global []float64, b *Block) {
	h := d.Halo
	nxp, nyp := d.PaddedDims(b)
	g := d.G
	for j := 0; j < nyp; j++ {
		row := dst[j*nxp : (j+1)*nxp]
		gj := b.Y0 - h + j
		if gj < 0 || gj >= g.Ny {
			for i := range row {
				row[i] = 0
			}
			continue
		}
		// In-domain columns are the contiguous run [lo, hi); zero the rest.
		lo := 0
		if b.X0-h < 0 {
			lo = h - b.X0
		}
		hi := nxp
		if b.X0-h+nxp > g.Nx {
			hi = g.Nx - b.X0 + h
		}
		for i := 0; i < lo; i++ {
			row[i] = 0
		}
		copy(row[lo:hi], global[gj*g.Nx+b.X0-h+lo:gj*g.Nx+b.X0-h+hi])
		for i := hi; i < nxp; i++ {
			row[i] = 0
		}
	}
}

// GatherInto copies the interior of a padded local array for block b into
// the global field.
func (d *Decomposition) GatherInto(global, local []float64, b *Block) {
	h := d.Halo
	nxp, _ := d.PaddedDims(b)
	g := d.G
	for j := 0; j < b.NyI; j++ {
		gj := b.Y0 + j
		for i := 0; i < b.NxI; i++ {
			global[gj*g.Nx+b.X0+i] = local[(j+h)*nxp+i+h]
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
