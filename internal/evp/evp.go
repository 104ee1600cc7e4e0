// Package evp implements Roache's Error Vector Propagation method (paper
// §4.2, Algorithm 3): a direct elliptic solver that marches the nine-point
// stencil equation north-eastward across a small block and corrects the
// initial-guess ring with a precomputed influence-matrix inverse.
//
// Geometry: the solver owns an (nx+2)×(ny+2) extended domain — the
// preconditioner block plus a phantom Dirichlet-zero boundary ring, which is
// exactly the diagonal sub-matrix Bᵢ of Figure 4 (couplings leaving the
// block hit zero values). The initial-guess set e is the interior L next to
// the south and west boundaries; the final set f is the north/east boundary
// ring that over-marching writes. Both have nx+ny−1 points (the paper's
// 2n−5 for an n×n extended domain).
//
// One solve is two marches plus a k×k influence correction — the paper's
// O(22·n²). The marches stream one packed coefficient record per interior
// point (see Packed); the correction runs between them, in place.
//
// Marching amplifies round-off exponentially with block size — the method is
// only usable on small blocks (≤ ~16; the paper quotes O(1e−8) error at
// 12×12), which is no restriction for a block-Jacobi preconditioner.
package evp

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/stencil"
)

// MaxStableSize is the largest extended-domain side for which marching
// round-off stays acceptable in double precision; NewBlockSolver refuses
// larger domains.
const MaxStableSize = 20

// Slots of one packed march record: the eight known-neighbour couplings in
// stencil row order [SW,S,SE,W,C,E,NW,N], each pre-multiplied by 1/c_NE,
// with 1/c_NE itself in the slot the NE coupling has in a stencil row.
const (
	pS, pW, pE, pN = 1, 3, 5, 7
	pInv           = 8
)

// Packed is a block operator in march form: one record per interior point,
// in march order (row by row, west to east), solved for the north-east
// unknown. The equation at (i,j) reads
//
//	x(i+1,j+1) = ψ(i,j)/c_NE − Σ (c_o/c_NE)·x(neighbour o),
//
// so the march multiplies by the stored reciprocal and never divides. This
// is the only copy of the block's coefficients a solver keeps: a 1° session
// holds ≈ 12 MB of them, and a second (unscaled) copy is a tenth of its
// live heap.
type Packed struct {
	nx, ny    int          // extended-domain dimensions (block + phantom ring)
	coeffsPer int64        // couplings the paper's flop accounting charges per march point
	p         [][9]float64 // (nx−2)·(ny−2) march records
}

// Pack splits the halo-1 window loc (see stencil.AssembleWindowFilled) into
// march records. When simplified is true the N/S/E/W couplings are zeroed
// (the five-coefficient variant of §4.3). It fails on a degenerate window or
// a zero north-east coefficient.
func Pack(loc *stencil.Local, simplified bool) (*Packed, error) {
	if loc.H != 1 {
		return nil, fmt.Errorf("evp: block window must have halo 1, got %d", loc.H)
	}
	nx, ny := loc.NxP, loc.NyP
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("evp: degenerate %d×%d domain", nx, ny)
	}
	pk := &Packed{nx: nx, ny: ny, coeffsPer: 9, p: make([][9]float64, 0, (nx-2)*(ny-2))}
	if simplified {
		pk.coeffsPer = 5
	}
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			row := loc.Row(i, j)
			ne := row[pInv]
			if ne == 0 {
				return nil, fmt.Errorf("evp: zero north-east coefficient at (%d,%d); block operator must be land-filled", i, j)
			}
			inv := 1 / ne
			for o := range row[:pInv] {
				row[o] *= inv
			}
			row[pInv] = inv
			if simplified {
				row[pS], row[pW], row[pE], row[pN] = 0, 0, 0, 0
			}
			pk.p = append(pk.p, row)
		}
	}
	return pk, nil
}

// march propagates x north-eastward: the equation at (i,j) determines
// x(i+1,j+1). psi is the right-hand side over the extended domain, read at
// interior points only. On entry x must hold the guess on e and zeros on the
// south/west boundary; every other point, including the north/east boundary
// ring (the f points), is overwritten.
//
// Row windows of one common length keep the inner loop free of bounds
// checks (verify.sh gates this), and the row's running value is carried in
// registers: x(i,j+1) and x(i−1,j+1) were written by the two previous
// steps, and the N term comes last so the carried chain is one multiply and
// one subtract.
//
//pop:hotpath
func (pk *Packed) march(x, psi []float64) {
	nx, n := pk.nx, pk.nx-2
	for j := 1; j <= pk.ny-2; j++ {
		lo := j*nx + 1
		cr := pk.p[(j-1)*n:][:n]
		pr := psi[lo:][:n]
		xse := x[lo-nx+1:][:n]
		xe := x[lo+1:][:n]
		out := x[lo+nx+1:][:n]
		sw, s := x[lo-nx-1], x[lo-nx]
		w, c := x[lo-1], x[lo]
		nw, north := x[lo+nx-1], x[lo+nx]
		for i := range out {
			k := &cr[i]
			se, e := xse[i], xe[i]
			t := pr[i]*k[pInv] - (k[0]*sw + k[1]*s + k[2]*se +
				k[3]*w + k[4]*c + k[5]*e + k[6]*nw)
			sw, s = s, se
			w, c = c, e
			nw, north = north, t-k[pN]*north
			out[i] = north
		}
	}
}

// marchHomogeneous is march with ψ = 0 — the influence-matrix columns and
// the growth estimate, i.e. set-up only.
func (pk *Packed) marchHomogeneous(x []float64) {
	nx, n := pk.nx, pk.nx-2
	for j := 1; j <= pk.ny-2; j++ {
		lo := j*nx + 1
		cr := pk.p[(j-1)*n:][:n]
		xse := x[lo-nx+1:][:n]
		xe := x[lo+1:][:n]
		out := x[lo+nx+1:][:n]
		sw, s := x[lo-nx-1], x[lo-nx]
		w, c := x[lo-1], x[lo]
		nw, north := x[lo+nx-1], x[lo+nx]
		for i := range out {
			k := &cr[i]
			se, e := xse[i], xe[i]
			t := -(k[0]*sw + k[1]*s + k[2]*se +
				k[3]*w + k[4]*c + k[5]*e + k[6]*nw)
			sw, s = s, se
			w, c = c, e
			nw, north = north, t-k[pN]*north
			out[i] = north
		}
	}
}

// Growth estimates the marching amplification factor: the largest |value|
// one homogeneous march produces from a unit guess in the middle of the
// e-ring's south row (representative of the influence-matrix columns). It
// quantifies the instability that restricts EVP to small blocks.
func (pk *Packed) Growth() float64 {
	x := make([]float64, pk.nx*pk.ny)
	x[1*pk.nx+pk.nx/2] = 1
	pk.marchHomogeneous(x)
	var g float64
	for _, v := range x {
		if a := math.Abs(v); a > g {
			g = a
		}
	}
	return g
}

// MarchGrowth is Pack followed by Growth. It has no size guard: measuring
// how hot an oversized block marches is what it is for. (Signature pinned by
// benchmark/.)
func MarchGrowth(loc *stencil.Local, simplified bool) (float64, error) {
	pk, err := Pack(loc, simplified)
	if err != nil {
		return 0, err
	}
	return pk.Growth(), nil
}

// BlockSolver solves Bᵢ·x = ψ on one preconditioner block by EVP marching.
type BlockSolver struct {
	pk   Packed
	e, f []int        // flattened extended-domain indices
	r    [][8]float64 // inverse influence matrix, |e|×|e|: r[i/8·k+j][i%8] = R(i,j), zero-padded
}

// NewBlockSolver is Pack followed by Solver. (Signature pinned by
// benchmark/.)
func NewBlockSolver(loc *stencil.Local, simplified bool) (*BlockSolver, error) {
	pk, err := Pack(loc, simplified)
	if err != nil {
		return nil, err
	}
	return pk.Solver()
}

// Solver builds the EVP solver for a packed block, sharing its records. It
// fails when the extended domain is too large for stable marching or the
// influence matrix is singular.
func (pk *Packed) Solver() (*BlockSolver, error) {
	nx, ny := pk.nx, pk.ny
	if nx > MaxStableSize+2 || ny > MaxStableSize+2 {
		return nil, fmt.Errorf("evp: %d×%d extended domain exceeds stable marching size", nx, ny)
	}
	s := &BlockSolver{pk: *pk}

	// Initial-guess ring e: interior points hugging the south and west
	// boundaries; final ring f: the north/east boundary points that
	// over-marching writes. |e| = |f| = (nx−2) + (ny−3).
	for i := 1; i <= nx-2; i++ {
		s.e = append(s.e, 1*nx+i)
	}
	for j := 2; j <= ny-2; j++ {
		s.e = append(s.e, j*nx+1)
	}
	for i := 2; i <= nx-1; i++ {
		s.f = append(s.f, (ny-1)*nx+i)
	}
	for j := 2; j <= ny-2; j++ {
		s.f = append(s.f, j*nx+(nx-1))
	}
	if len(s.e) != len(s.f) {
		panic("evp: e/f size mismatch")
	}

	// Influence matrix: column i is the response at f to a unit guess at
	// e[i] under the homogeneous equation.
	k := len(s.e)
	w := linalg.NewDense(k, k)
	work := make([]float64, nx*ny)
	for col, ek := range s.e {
		clear(work)
		work[ek] = 1
		pk.marchHomogeneous(work)
		for row, fk := range s.f {
			w.Set(row, col, work[fk])
		}
	}
	inv, err := linalg.Inverse(w)
	if err != nil {
		return nil, fmt.Errorf("evp: influence matrix singular: %w", err)
	}
	s.r = make([][8]float64, (k+7)/8*k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			s.r[i/8*k+j][i%8] = inv.At(i, j)
		}
	}
	return s, nil
}

// Size returns the interior block dimensions.
func (s *BlockSolver) Size() (nx, ny int) { return s.pk.nx - 2, s.pk.ny - 2 }

// Solve computes x = Bᵢ⁻¹·ψ on the extended domain: both slices are
// extended-domain length, ψ is read at interior points only (its ring may
// hold anything), and x receives the solution at interior points with zeros
// on the ring. Following Algorithm 3: march with zero guess, correct the
// guess ring through the influence inverse, march again.
//
//pop:hotpath
func (s *BlockSolver) Solve(x, psi []float64) {
	if n := s.pk.nx * s.pk.ny; len(x) != n || len(psi) != n {
		panic("evp: Solve dimension mismatch")
	}
	clear(x)
	s.pk.march(x, psi)

	// Guess correction e −= R·F with F = x|f (the Dirichlet boundary value
	// there is 0). R is stored eight rows to a record, so one pass over F
	// feeds eight independent accumulators; each row still sums in column
	// order.
	e, f, k := s.e, s.f, len(s.f)
	for i := 0; i < k; i += 8 {
		rb := s.r[i/8*k:][:k]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for j, fk := range f {
			v := x[fk]
			c := &rb[j]
			a0 += c[0] * v
			a1 += c[1] * v
			a2 += c[2] * v
			a3 += c[3] * v
			a4 += c[4] * v
			a5 += c[5] * v
			a6 += c[6] * v
			a7 += c[7] * v
		}
		acc := [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
		for l, ek := range e[i:min(i+8, k)] {
			x[ek] -= acc[l]
		}
	}

	// The second march overwrites every non-e interior point and the f ring.
	s.pk.march(x, psi)
	for _, fk := range f {
		x[fk] = 0 // residual round-off on the phantom boundary
	}
}

// SolveFlops returns the per-application flop charge, following the paper's
// accounting: 2 marches of (9 or 5)·n² plus the k² influence correction —
// ≈22·n² full, ≈14·n² simplified (§4.3).
func (s *BlockSolver) SolveFlops() int64 {
	n2 := int64((s.pk.nx - 2) * (s.pk.ny - 2))
	k := int64(len(s.e))
	return 2*s.pk.coeffsPer*n2 + k*k
}

// SetupFlops returns the preprocessing charge: k homogeneous marches plus
// the k³ influence-matrix inversion (paper §4.2: C_pre ≈ 26·n³).
func (s *BlockSolver) SetupFlops() int64 {
	n2 := int64((s.pk.nx - 2) * (s.pk.ny - 2))
	k := int64(len(s.e))
	return k*s.pk.coeffsPer*n2 + k*k*k
}

// Compact re-homes the solvers' march records and influence inverses, in
// slice order, in two contiguous slabs. Built one by one, each solver's
// arrays sit wherever the allocator's size classes put them, between set-up
// garbage; a preconditioner sweep visits solvers in a fixed order, and over
// compacted solvers it streams memory front to back (−9% on a 1° apply,
// where the coefficients do not fit in L2).
func Compact(sols []*BlockSolver) {
	np, nr := 0, 0
	for _, s := range sols {
		np += len(s.pk.p)
		nr += len(s.r)
	}
	ps := make([][9]float64, np)
	rs := make([][8]float64, nr)
	for _, s := range sols {
		np, nr = copy(ps, s.pk.p), copy(rs, s.r)
		s.pk.p, s.r = ps[:np:np], rs[:nr:nr]
		ps, rs = ps[np:], rs[nr:]
	}
}
