package evp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/stencil"
)

// offsets in stencil row order [SW,S,SE,W,C,E,NW,N,NE] as (di,dj).
var offsets = [9][2]int{
	{-1, -1}, {0, -1}, {1, -1},
	{-1, 0}, {0, 0}, {1, 0},
	{-1, 1}, {0, 1}, {1, 1},
}

// denseBlock materializes the interior sub-matrix Bᵢ (zero-Dirichlet
// exterior) of a halo-1 window, optionally with the simplified stencil.
func denseBlock(loc *stencil.Local, simplified bool) *linalg.Dense {
	nxi, nyi := loc.NxI(), loc.NyI()
	n := nxi * nyi
	d := linalg.NewDense(n, n)
	for j := 0; j < nyi; j++ {
		for i := 0; i < nxi; i++ {
			row := loc.Row(i+1, j+1)
			if simplified {
				row[1], row[3], row[5], row[7] = 0, 0, 0, 0
			}
			for o, v := range offsets {
				ii, jj := i+v[0], j+v[1]
				if row[o] == 0 || ii < 0 || ii >= nxi || jj < 0 || jj >= nyi {
					continue
				}
				d.Set(j*nxi+i, jj*nxi+ii, row[o])
			}
		}
	}
	return d
}

func testWindow(t *testing.T, nx, ny int) *stencil.Local {
	t.Helper()
	g := grid.Generate(grid.TestSpec())
	phi := stencil.PhiFromTimeStep(1800)
	// A window over a mixed land/ocean area exercises the filling.
	return stencil.AssembleWindow(g, phi, 20, 14, nx, ny, 50)
}

// solveVsDense holds Solve to dense LU of the same block: every interior
// value within tol of the LU answer, relative to the answer's largest.
func solveVsDense(t *testing.T, loc *stencil.Local, simplified bool, tol float64) {
	t.Helper()
	s, err := NewBlockSolver(loc, simplified)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := loc.NxP, loc.NyP
	nxi, nyi := loc.NxI(), loc.NyI()
	dm := denseBlock(loc, simplified)
	lu, err := linalg.Factor(dm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3; trial++ {
		psi := make([]float64, nx*ny)
		want := make([]float64, nxi*nyi)
		for j := 0; j < nyi; j++ {
			for i := 0; i < nxi; i++ {
				v := rng.NormFloat64()
				psi[(j+1)*nx+i+1] = v
				want[j*nxi+i] = v
			}
		}
		lu.Solve(want)
		x := make([]float64, nx*ny)
		s.Solve(x, psi)
		var scale float64
		for _, v := range want {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for j := 0; j < nyi; j++ {
			for i := 0; i < nxi; i++ {
				got := x[(j+1)*nx+i+1]
				if math.Abs(got-want[j*nxi+i]) > tol*scale {
					t.Fatalf("%d×%d simplified=%v: EVP/LU mismatch at (%d,%d): %v vs %v (scale %v, tol %.3g)",
						nxi, nyi, simplified, i, j, got, want[j*nxi+i], scale, tol)
				}
			}
		}
	}
}

// TestSolveMatchesDense sweeps every interior shape up to the default tile
// side, square, rectangular and one point wide, with the full and the
// simplified (§4.3) stencil: on the synthetic test grid, whose anisotropy
// (dx/dy ≈ 2.5 at the equator) makes 8×8 march at G ≈ 1e8, far hotter than
// the paper's near-isotropic blocks, and on a coastal tile of the 1° grid.
//
// The tolerance comes from each block's own marching growth G: round-off
// enters every marched value at relative ε and is amplified by up to G on
// the way to the f ring, so the solve is good to a small multiple of G·ε.
// The multiple is 2¹² — the slack the hand-written per-shape table this
// replaces had at its tightest row (8×8 on the test grid: error 2.8e−5
// against G·ε = 2.1e−8; tolerance 1e−4 then, 8.4e−5 now), and tighter than
// that table on every other row it had.
func TestSolveMatchesDense(t *testing.T) {
	phi := stencil.PhiFromTimeStep(1800)
	for _, w := range []struct {
		name   string
		g      *grid.Grid
		x0, y0 int
	}{
		{"test", grid.Generate(grid.TestSpec()), 20, 14},
		{"1deg", grid.OneDegree(), 208, 32},
	} {
		for _, simplified := range []bool{false, true} {
			variant := "full"
			if simplified {
				variant = "simplified"
			}
			t.Run(w.name+"-"+variant, func(t *testing.T) {
				for ny := 1; ny <= 8; ny++ {
					for nx := 1; nx <= 8; nx++ {
						// A window over a mixed land/ocean area exercises the filling.
						loc := stencil.AssembleWindow(w.g, phi, w.x0, w.y0, nx, ny, 50)
						growth, err := MarchGrowth(loc, simplified)
						if err != nil {
							t.Fatal(err)
						}
						solveVsDense(t, loc, simplified, 0x1p-40*growth) // 2¹²·G·ε
					}
				}
			})
		}
	}
}

func TestSolveFlatBasin(t *testing.T) {
	g := grid.NewFlatBasin(32, 32, 2000, 1e4, 1.3e4)
	for _, c := range []struct {
		n   int
		tol float64
	}{{10, 1e-5}, {12, 1e-4}} {
		loc := stencil.AssembleWindow(g, stencil.PhiFromTimeStep(600), 8, 8, c.n, c.n, 50)
		solveVsDense(t, loc, false, c.tol)
	}
}

func TestTwelveByTwelveRoundOff(t *testing.T) {
	// The paper quotes O(1e−8) round-off at 12×12 on its near-isotropic
	// grid — verify the residual of the EVP solution is small relative to
	// the input on a comparable isotropic basin.
	g := grid.NewFlatBasin(32, 32, 3000, 1e4, 1.1e4)
	loc := stencil.AssembleWindow(g, stencil.PhiFromTimeStep(600), 8, 8, 12, 12, 50)
	s, err := NewBlockSolver(loc, false)
	if err != nil {
		t.Fatal(err)
	}
	nx, ny := loc.NxP, loc.NyP
	rng := rand.New(rand.NewSource(7))
	psi := make([]float64, nx*ny)
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			psi[j*nx+i] = rng.NormFloat64()
		}
	}
	x := make([]float64, nx*ny)
	s.Solve(x, psi)
	// Residual ψ − Bx at interior points, with zero-Dirichlet exterior.
	var relMax float64
	for j := 1; j < ny-1; j++ {
		for i := 1; i < nx-1; i++ {
			row := loc.Row(i, j)
			k := j*nx + i
			var ax float64
			for o, v := range offsets {
				ax += row[o] * x[k+v[1]*nx+v[0]]
			}
			res := math.Abs(psi[k]-ax) / (math.Abs(psi[k]) + 1)
			if res > relMax {
				relMax = res
			}
		}
	}
	// Marching growth ≈2.4e5 at isotropic 12×12 and the stencil norm is
	// ~1e3, so the equation residual lands around 1e−4 relative — the
	// solution itself is accurate to ~1e−7 (see TestSolveFlatBasin), which
	// is the paper's "acceptable round-off" regime.
	if relMax > 5e-3 {
		t.Fatalf("12×12 EVP relative residual %g too large", relMax)
	}
}

func TestRejectsOversizedBlocks(t *testing.T) {
	g := grid.NewFlatBasin(64, 64, 2000, 1e4, 1e4)
	loc := stencil.AssembleWindow(g, stencil.PhiFromTimeStep(600), 4, 4, 40, 40, 50)
	if _, err := NewBlockSolver(loc, false); err == nil {
		t.Fatal("accepted a 40×40 block; marching would be unstable")
	}
}

func TestRejectsZeroCornerCoefficient(t *testing.T) {
	// An unfilled window over land has dry corners → zero ANE → error.
	g := grid.Generate(grid.TestSpec())
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(1800))
	// Find a window containing land.
	var loc *stencil.Local
	for y := 0; y < g.Ny-10 && loc == nil; y += 4 {
		for x := 0; x < g.Nx-10; x += 4 {
			hasLand := false
			for j := y; j < y+8; j++ {
				for i := x; i < x+8; i++ {
					if !g.Mask[g.Idx(i, j)] {
						hasLand = true
					}
				}
			}
			if !hasLand {
				continue
			}
			l := &stencil.Local{NxP: 10, NyP: 10, H: 1,
				AC: make([]float64, 100), AN: make([]float64, 100),
				AE: make([]float64, 100), ANE: make([]float64, 100),
				Mask: make([]bool, 100)}
			l.InitRuns()
			for j := 0; j < 10; j++ {
				for i := 0; i < 10; i++ {
					gi, gj := x-1+i, y-1+j
					if gi < 0 || gi >= g.Nx || gj < 0 || gj >= g.Ny {
						continue
					}
					kl, kg := j*10+i, g.Idx(gi, gj)
					l.AC[kl], l.AN[kl], l.AE[kl], l.ANE[kl] = op.AC[kg], op.AN[kg], op.AE[kg], op.ANE[kg]
				}
			}
			loc = l
			break
		}
	}
	if loc == nil {
		t.Skip("no land window found")
	}
	if _, err := NewBlockSolver(loc, false); err == nil {
		t.Fatal("accepted a block with zero NE coefficients")
	}
}

func TestMarchGrowthExplodesWithSize(t *testing.T) {
	g := grid.NewFlatBasin(64, 64, 2000, 1e4, 1e4)
	phi := stencil.PhiFromTimeStep(600)
	growth := func(n int) float64 {
		loc := stencil.AssembleWindow(g, phi, 4, 4, n, n, 50)
		v, err := MarchGrowth(loc, false)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	g8, g16, g32 := growth(8), growth(16), growth(32)
	if !(g8 < g16 && g16 < g32) {
		t.Fatalf("growth not monotone: %g %g %g", g8, g16, g32)
	}
	if g32 < 1e8 {
		t.Fatalf("expected explosive growth at 32×32, got %g", g32)
	}
	if g8 > 1e8 {
		t.Fatalf("8×8 marching already unstable: %g", g8)
	}
}

func TestFlopAccounting(t *testing.T) {
	loc := testWindow(t, 12, 12)
	full, err := NewBlockSolver(loc, false)
	if err != nil {
		t.Fatal(err)
	}
	simp, err := NewBlockSolver(loc, true)
	if err != nil {
		t.Fatal(err)
	}
	// k = nx+ny−1 for the 14×14 extended domain = 2·14−5 = 23.
	k := int64(23)
	wantFull := 2*9*144 + k*k
	wantSimp := 2*5*144 + k*k
	if full.SolveFlops() != wantFull {
		t.Fatalf("full SolveFlops=%d want %d", full.SolveFlops(), wantFull)
	}
	if simp.SolveFlops() != wantSimp {
		t.Fatalf("simplified SolveFlops=%d want %d", simp.SolveFlops(), wantSimp)
	}
	if full.SetupFlops() <= full.SolveFlops() {
		t.Fatal("setup should cost more than one solve")
	}
	if nx, ny := full.Size(); nx != 12 || ny != 12 {
		t.Fatalf("Size=(%d,%d)", nx, ny)
	}
}

// Property-style test: EVP is an exact linear solver, so Solve(αψ₁+βψ₂) =
// α·Solve(ψ₁) + β·Solve(ψ₂) up to round-off.
func TestSolveLinearity(t *testing.T) {
	loc := testWindow(t, 8, 8)
	s, err := NewBlockSolver(loc, false)
	if err != nil {
		t.Fatal(err)
	}
	n := loc.NxP * loc.NyP
	rng := rand.New(rand.NewSource(11))
	psi1 := make([]float64, n)
	psi2 := make([]float64, n)
	comb := make([]float64, n)
	for j := 1; j < loc.NyP-1; j++ {
		for i := 1; i < loc.NxP-1; i++ {
			k := j*loc.NxP + i
			psi1[k] = rng.NormFloat64()
			psi2[k] = rng.NormFloat64()
			comb[k] = 2*psi1[k] - 3*psi2[k]
		}
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	xc := make([]float64, n)
	s.Solve(x1, psi1)
	s.Solve(x2, psi2)
	s.Solve(xc, comb)
	for k := range xc {
		want := 2*x1[k] - 3*x2[k]
		if math.Abs(xc[k]-want) > 1e-7*(math.Abs(want)+1) {
			t.Fatalf("linearity violated at %d: %v vs %v", k, xc[k], want)
		}
	}
}

// Compact only moves coefficients: every solver must answer bit for bit as
// it did from its own allocations.
func TestCompactPreservesSolves(t *testing.T) {
	var sols []*BlockSolver
	var psis, before [][]float64
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{8, 8}, {3, 7}, {1, 1}, {8, 5}} {
		loc := testWindow(t, shape[0], shape[1])
		s, err := NewBlockSolver(loc, false)
		if err != nil {
			t.Fatal(err)
		}
		psi := make([]float64, loc.NxP*loc.NyP)
		for k := range psi {
			psi[k] = rng.NormFloat64()
		}
		x := make([]float64, len(psi))
		s.Solve(x, psi)
		sols, psis, before = append(sols, s), append(psis, psi), append(before, x)
	}
	Compact(sols)
	for i, s := range sols {
		x := make([]float64, len(psis[i]))
		s.Solve(x, psis[i])
		for k := range x {
			if math.Float64bits(x[k]) != math.Float64bits(before[i][k]) {
				t.Fatalf("solver %d entry %d: %v after Compact, %v before", i, k, x[k], before[i][k])
			}
		}
	}
}
