// Package stencil assembles and applies the nine-point implicit free-surface
// operator that the POP barotropic mode solves every time step:
//
//	[−∇·H∇ + φ(τ)] η = ψ   (paper Eq. 1, sign-normalized to be SPD)
//
// The discretization follows the POP B-grid: η lives at T-points and the
// depth-weighted gradient is evaluated at the four surrounding corner
// (U-) points. Each wet corner contributes a 4×4 symmetric element that
// couples its four T-points, yielding the classic POP nine-point stencil in
// which the diagonal (corner-neighbour) couplings dominate and the N/S/E/W
// couplings are proportional to (1/dy² − 1/dx²) — an order of magnitude
// smaller on near-isotropic grids, exactly the property §4.3 of the paper
// exploits to halve the EVP preconditioner cost.
//
// Because the operator is symmetric, only four coefficient arrays are
// stored (POP's A0/AN/AE/ANE layout): the coupling between (i,j) and
// (i+1,j−1) is ANE(i,j−1), etc. Land rows are identity rows, and every
// coupling that touches a land point vanishes automatically because dry
// corners carry zero depth.
package stencil

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/linalg"
)

// Gravity is the gravitational acceleration used by the mass term (m/s²).
const Gravity = 9.806

// Operator is the assembled nine-point SPD operator on a global grid.
type Operator struct {
	// Nx and Ny are the grid's T-point dimensions.
	Nx, Ny int
	// Coefficient arrays, length Nx*Ny, POP layout:
	//   AC(i,j): diagonal;
	//   AN(i,j): coupling (i,j)↔(i,j+1);
	//   AE(i,j): coupling (i,j)↔(i+1,j);
	//   ANE(i,j): coupling (i,j)↔(i+1,j+1) and, read at (i,j−1),
	//             the anti-diagonal coupling (i,j)↔(i+1,j−1).
	AC, AN, AE, ANE []float64
	Mask            []bool // true = ocean (shared with the source grid)
	// Phi is the implicit free-surface mass coefficient folded into AC
	// (see PhiFromTimeStep).
	Phi float64
}

// PhiFromTimeStep returns the implicit free-surface mass coefficient
// φ(τ) = 1/(g·τ²) for barotropic time step τ seconds.
func PhiFromTimeStep(tau float64) float64 { return 1 / (Gravity * tau * tau) }

// Assemble builds the operator for grid g with mass coefficient phi (1/m).
// phi must be positive: it is what makes the masked system definite.
func Assemble(g *grid.Grid, phi float64) *Operator {
	if phi <= 0 {
		panic(fmt.Sprintf("stencil: non-positive mass coefficient %g", phi))
	}
	n := g.N()
	// A Local without padding or mask: the operator shares the grid's.
	l := &Local{
		NxP: g.Nx, NyP: g.Ny,
		AC:  make([]float64, n),
		AN:  make([]float64, n),
		AE:  make([]float64, n),
		ANE: make([]float64, n),
	}
	assemble(l, g, phi, 0, 0, 0)
	return &Operator{
		Nx: g.Nx, Ny: g.Ny,
		AC: l.AC, AN: l.AN, AE: l.AE, ANE: l.ANE,
		Mask: g.Mask,
		Phi:  phi,
	}
}

// Diagonal returns the operator diagonal (aliasing nothing; a fresh slice).
func (op *Operator) Diagonal() []float64 {
	d := make([]float64, len(op.AC))
	copy(d, op.AC)
	return d
}

// Apply computes y = A·x on global (un-haloed) arrays of length Nx*Ny.
// Land points are identity rows: y = x there.
//
// Interior rows run over per-row slice windows of one common length so the
// compiler's prove pass drops the bounds checks from the nine-point inner
// loop; domain-border points keep the guarded scalar path (out-of-range
// couplings are zero by construction, so skipping them is exact).
func (op *Operator) Apply(y, x []float64) {
	nx, ny := op.Nx, op.Ny
	if len(x) != nx*ny || len(y) != nx*ny {
		panic("stencil: Apply dimension mismatch")
	}
	for j := 1; j < ny-1; j++ {
		op.applyBorderPoint(y, x, 0, j)
		if nx < 3 {
			if nx == 2 {
				op.applyBorderPoint(y, x, 1, j)
			}
			continue
		}
		lo := j*nx + 1
		n := nx - 2
		yr := y[lo:][:n]
		xc := x[lo:][:n]
		xn := x[lo+nx:][:n]
		xs := x[lo-nx:][:n]
		xe := x[lo+1:][:n]
		xw := x[lo-1:][:n]
		xne := x[lo+nx+1:][:n]
		xse := x[lo-nx+1:][:n]
		xnw := x[lo+nx-1:][:n]
		xsw := x[lo-nx-1:][:n]
		ac := op.AC[lo:][:n]
		an := op.AN[lo:][:n]
		ans := op.AN[lo-nx:][:n]
		ae := op.AE[lo:][:n]
		aw := op.AE[lo-1:][:n]
		ane := op.ANE[lo:][:n]
		anes := op.ANE[lo-nx:][:n]
		anew := op.ANE[lo-1:][:n]
		anesw := op.ANE[lo-nx-1:][:n]
		for i := range yr {
			yr[i] = ac[i]*xc[i] +
				an[i]*xn[i] + ans[i]*xs[i] +
				ae[i]*xe[i] + aw[i]*xw[i] +
				ane[i]*xne[i] + anes[i]*xse[i] +
				anew[i]*xnw[i] + anesw[i]*xsw[i]
		}
		op.applyBorderPoint(y, x, nx-1, j)
	}
	for i := 0; i < nx; i++ {
		op.applyBorderPoint(y, x, i, 0)
		if ny > 1 {
			op.applyBorderPoint(y, x, i, ny-1)
		}
	}
}

// applyBorderPoint evaluates one stencil row with neighbour guards — the
// slow path for points on the domain boundary.
func (op *Operator) applyBorderPoint(y, x []float64, i, j int) {
	nx, ny := op.Nx, op.Ny
	k := j*nx + i
	s := op.AC[k] * x[k]
	if j+1 < ny {
		s += op.AN[k] * x[k+nx]
	}
	if j > 0 {
		s += op.AN[k-nx] * x[k-nx]
	}
	if i+1 < nx {
		s += op.AE[k] * x[k+1]
	}
	if i > 0 {
		s += op.AE[k-1] * x[k-1]
	}
	if i+1 < nx && j+1 < ny {
		s += op.ANE[k] * x[k+nx+1]
	}
	if i+1 < nx && j > 0 {
		s += op.ANE[k-nx] * x[k-nx+1]
	}
	if i > 0 && j+1 < ny {
		s += op.ANE[k-1] * x[k+nx-1]
	}
	if i > 0 && j > 0 {
		s += op.ANE[k-nx-1] * x[k-nx-1]
	}
	y[k] = s
}

// Row returns the nine stencil coefficients of row (i,j) in the order
// [SW, S, SE, W, C, E, NW, N, NE]. Out-of-range couplings are zero.
func (op *Operator) Row(i, j int) [9]float64 {
	nx, ny := op.Nx, op.Ny
	k := j*nx + i
	var r [9]float64
	r[4] = op.AC[k]
	if i > 0 && j > 0 {
		r[0] = op.ANE[k-nx-1]
	}
	if j > 0 {
		r[1] = op.AN[k-nx]
	}
	if i+1 < nx && j > 0 {
		r[2] = op.ANE[k-nx]
	}
	if i > 0 {
		r[3] = op.AE[k-1]
	}
	if i+1 < nx {
		r[5] = op.AE[k]
	}
	if i > 0 && j+1 < ny {
		r[6] = op.ANE[k-1]
	}
	if j+1 < ny {
		r[7] = op.AN[k]
	}
	if i+1 < nx && j+1 < ny {
		r[8] = op.ANE[k]
	}
	return r
}

// Dense materializes the operator as a dense matrix — test/debug only;
// panics on grids above 64×64.
func (op *Operator) Dense() *linalg.Dense {
	n := op.Nx * op.Ny
	if n > 64*64 {
		panic("stencil: Dense is for small test grids only")
	}
	d := linalg.NewDense(n, n)
	offs := [9][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for j := 0; j < op.Ny; j++ {
		for i := 0; i < op.Nx; i++ {
			row := op.Row(i, j)
			for c, o := range offs {
				ii, jj := i+o[0], j+o[1]
				if row[c] == 0 || ii < 0 || ii >= op.Nx || jj < 0 || jj >= op.Ny {
					continue
				}
				d.Set(j*op.Nx+i, jj*op.Nx+ii, row[c])
			}
		}
	}
	return d
}

// MaskedDot returns Σ x[k]·y[k] over ocean points only — the masking
// operation the paper's global reductions perform to exclude land.
func (op *Operator) MaskedDot(x, y []float64) float64 {
	var s float64
	for k, m := range op.Mask {
		if m {
			s += x[k] * y[k]
		}
	}
	return s
}

// MaskedNorm2 returns the Euclidean norm of x over ocean points.
func (op *Operator) MaskedNorm2(x []float64) float64 {
	return math.Sqrt(op.MaskedDot(x, x))
}
