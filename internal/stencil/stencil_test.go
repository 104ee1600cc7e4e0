package stencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func testOperator() (*grid.Grid, *Operator) {
	g := grid.Generate(grid.TestSpec())
	return g, Assemble(g, PhiFromTimeStep(1800))
}

func randomField(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestPhiFromTimeStep(t *testing.T) {
	phi := PhiFromTimeStep(100)
	want := 1 / (Gravity * 1e4)
	if math.Abs(phi-want) > 1e-18 {
		t.Fatalf("phi=%v want %v", phi, want)
	}
}

func TestOperatorSymmetry(t *testing.T) {
	_, op := testOperator()
	rng := rand.New(rand.NewSource(3))
	n := op.Nx * op.Ny
	for trial := 0; trial < 5; trial++ {
		x := randomField(rng, n)
		y := randomField(rng, n)
		ax := make([]float64, n)
		ay := make([]float64, n)
		op.Apply(ax, x)
		op.Apply(ay, y)
		// ⟨Ax,y⟩ = ⟨x,Ay⟩ over the full domain (land rows are symmetric
		// identity rows).
		var lhs, rhs float64
		for k := 0; k < n; k++ {
			lhs += ax[k] * y[k]
			rhs += x[k] * ay[k]
		}
		scale := math.Abs(lhs) + math.Abs(rhs) + 1
		if math.Abs(lhs-rhs) > 1e-10*scale {
			t.Fatalf("asymmetry: ⟨Ax,y⟩=%v ⟨x,Ay⟩=%v", lhs, rhs)
		}
	}
}

func TestOperatorPositiveDefinite(t *testing.T) {
	_, op := testOperator()
	rng := rand.New(rand.NewSource(4))
	n := op.Nx * op.Ny
	for trial := 0; trial < 10; trial++ {
		x := randomField(rng, n)
		ax := make([]float64, n)
		op.Apply(ax, x)
		var q float64
		for k := 0; k < n; k++ {
			q += x[k] * ax[k]
		}
		if q <= 0 {
			t.Fatalf("xᵀAx = %v ≤ 0", q)
		}
	}
}

func TestLandRowsAreIdentity(t *testing.T) {
	g, op := testOperator()
	rng := rand.New(rand.NewSource(5))
	n := op.Nx * op.Ny
	x := randomField(rng, n)
	y := make([]float64, n)
	op.Apply(y, x)
	for k := range y {
		if !g.Mask[k] && y[k] != x[k] {
			t.Fatalf("land row %d not identity: y=%v x=%v", k, y[k], x[k])
		}
	}
}

func TestCouplingsToLandVanish(t *testing.T) {
	g, op := testOperator()
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			if !g.Mask[g.Idx(i, j)] {
				continue
			}
			row := op.Row(i, j)
			offs := [9][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}
			for c, o := range offs {
				if c == 4 {
					continue
				}
				if row[c] != 0 && !g.IsOcean(i+o[0], j+o[1]) {
					t.Fatalf("ocean point (%d,%d) couples to land via offset %v", i, j, o)
				}
			}
		}
	}
}

func TestCornerCouplingsDominateEdges(t *testing.T) {
	// On a near-isotropic grid the N/S/E/W couplings are much smaller than
	// the corner couplings — the paper's §4.3 observation.
	g := grid.NewFlatBasin(24, 24, 4000, 1e4, 1.05e4)
	op := Assemble(g, PhiFromTimeStep(300))
	row := op.Row(12, 12)
	corner := math.Abs(row[8])
	for _, c := range []int{1, 3, 5, 7} {
		if math.Abs(row[c]) > corner/5 {
			t.Fatalf("edge coupling %v not ≪ corner coupling %v", row[c], corner)
		}
	}
}

func TestEdgeCouplingsVanishOnIsotropicGrid(t *testing.T) {
	g := grid.NewFlatBasin(16, 16, 1000, 5e3, 5e3)
	op := Assemble(g, PhiFromTimeStep(300))
	row := op.Row(8, 8)
	for _, c := range []int{1, 3, 5, 7} {
		if row[c] != 0 {
			t.Fatalf("isotropic grid should have zero edge couplings, got %v", row[c])
		}
	}
}

func TestApplyMatchesDense(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	// Shrink to stay under the Dense limit.
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 20, 16
	g = grid.Generate(spec)
	op := Assemble(g, PhiFromTimeStep(900))
	d := op.Dense()
	rng := rand.New(rand.NewSource(6))
	n := g.N()
	x := randomField(rng, n)
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	op.Apply(y1, x)
	d.MulVec(y2, x)
	for k := range y1 {
		if math.Abs(y1[k]-y2[k]) > 1e-8*(math.Abs(y1[k])+1) {
			t.Fatalf("stencil/dense mismatch at %d: %v vs %v", k, y1[k], y2[k])
		}
	}
}

func TestRowSymmetryProperty(t *testing.T) {
	// A(i,j → di,dj) must equal A(i+di,j+dj → −di,−dj).
	_, op := testOperator()
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	offs := [9][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i := rng.Intn(op.Nx)
		j := rng.Intn(op.Ny)
		row := op.Row(i, j)
		for c, o := range offs {
			ii, jj := i+o[0], j+o[1]
			if ii < 0 || ii >= op.Nx || jj < 0 || jj >= op.Ny {
				continue
			}
			back := op.Row(ii, jj)
			if row[c] != back[8-c] { // offsets list is centro-symmetric
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedDot(t *testing.T) {
	g, op := testOperator()
	x := make([]float64, g.N())
	for k := range x {
		x[k] = 1
	}
	if got := op.MaskedDot(x, x); got != float64(g.OceanPoints()) {
		t.Fatalf("MaskedDot=%v want %v", got, g.OceanPoints())
	}
	if got := op.MaskedNorm2(x); math.Abs(got-math.Sqrt(float64(g.OceanPoints()))) > 1e-12 {
		t.Fatalf("MaskedNorm2=%v", got)
	}
}

func TestLocalApplyMatchesGlobal(t *testing.T) {
	// Extract a padded window by hand and compare Local.Apply with the
	// global Apply restricted to that window.
	g, op := testOperator()
	const h = 2
	x0, y0, nxi, nyi := 10, 8, 12, 9 // interior window, away from edges
	nxp, nyp := nxi+2*h, nyi+2*h
	loc := &Local{NxP: nxp, NyP: nyp, H: h,
		AC:   make([]float64, nxp*nyp),
		AN:   make([]float64, nxp*nyp),
		AE:   make([]float64, nxp*nyp),
		ANE:  make([]float64, nxp*nyp),
		Mask: make([]bool, nxp*nyp),
	}
	rng := rand.New(rand.NewSource(9))
	x := randomField(rng, g.N())
	xl := make([]float64, nxp*nyp)
	for j := 0; j < nyp; j++ {
		for i := 0; i < nxp; i++ {
			gi, gj := x0-h+i, y0-h+j
			kl := j*nxp + i
			kg := g.Idx(gi, gj)
			loc.AC[kl] = op.AC[kg]
			loc.AN[kl] = op.AN[kg]
			loc.AE[kl] = op.AE[kg]
			loc.ANE[kl] = op.ANE[kg]
			loc.Mask[kl] = g.Mask[kg]
			xl[kl] = x[kg]
		}
	}
	loc.InitRuns()
	yg := make([]float64, g.N())
	op.Apply(yg, x)
	// Local.Apply writes ocean points only: land and halo keep the sentinel.
	const sentinel = -12345.0
	yl := make([]float64, nxp*nyp)
	for k := range yl {
		yl[k] = sentinel
	}
	loc.Apply(yl, xl)
	land := 0
	for k, wet := range loc.Mask {
		i, j := k%nxp, k/nxp
		if (!wet || i < h || i >= nxp-h || j < h || j >= nyp-h) && yl[k] != sentinel {
			t.Fatalf("land or halo cell (%d,%d) written: %v", i, j, yl[k])
		}
		if !wet {
			land++
		}
	}
	if land == 0 {
		t.Fatal("window has no land: the sentinel check exercised nothing")
	}
	for j := h; j < nyp-h; j++ {
		for i := h; i < nxp-h; i++ {
			kg := g.Idx(x0-h+i, y0-h+j)
			kl := j*nxp + i
			if !loc.Mask[kl] {
				continue
			}
			if math.Abs(yl[kl]-yg[kg]) > 1e-12*(math.Abs(yg[kg])+1) {
				t.Fatalf("local/global mismatch at local (%d,%d): %v vs %v", i, j, yl[kl], yg[kg])
			}
		}
	}
	if loc.NxI() != nxi || loc.NyI() != nyi || loc.InteriorLen() != nxi*nyi {
		t.Fatal("interior dimension accessors wrong")
	}
	if loc.ApplyFlops() != int64(9*nxi*nyi) {
		t.Fatalf("ApplyFlops=%d", loc.ApplyFlops())
	}
}

func TestAssembleWindowFilledMatchesTrueOperatorAwayFromLand(t *testing.T) {
	// The EVP preconditioner solves the land-filled block operator; its
	// quality rests on the filled coefficients being *identical* to the
	// true ones wherever every involved cell is ocean (deeper than fill).
	g := grid.Generate(grid.TestSpec())
	phi := PhiFromTimeStep(1800)
	op := Assemble(g, phi)
	const x0, y0, w, h = 12, 10, 12, 10
	win := AssembleWindow(g, phi, x0, y0, w, h, 50)
	for j := 1; j <= h; j++ {
		for i := 1; i <= w; i++ {
			gi, gj := x0-1+i, y0-1+j
			// Check only points whose full 3×3 neighbourhood is ocean.
			allOcean := true
			for dj := -1; dj <= 1; dj++ {
				for di := -1; di <= 1; di++ {
					if !g.IsOcean(gi+di, gj+dj) {
						allOcean = false
					}
				}
			}
			if !allOcean {
				continue
			}
			want := op.Row(gi, gj)
			got := win.Row(i, j)
			for c := range want {
				if math.Abs(got[c]-want[c]) > 1e-9*(math.Abs(want[c])+1) {
					t.Fatalf("filled window differs from true operator at (%d,%d) coef %d: %v vs %v",
						gi, gj, c, got[c], want[c])
				}
			}
		}
	}
}

func TestAssembleWindowFilledAllWet(t *testing.T) {
	// Every NE coefficient in the filled window must be nonzero — the
	// property EVP marching needs, even across land.
	g := grid.Generate(grid.TestSpec())
	phi := PhiFromTimeStep(1800)
	// Window chosen over a coastline (found dynamically).
	for y := 2; y < g.Ny-12; y += 6 {
		for x := 2; x < g.Nx-12; x += 6 {
			win := AssembleWindow(g, phi, x, y, 8, 8, 50)
			for j := 1; j <= 8; j++ {
				for i := 1; i <= 8; i++ {
					if win.Row(i, j)[8] == 0 {
						t.Fatalf("zero NE coefficient at window (%d,%d)+(%d,%d)", x, y, i, j)
					}
				}
			}
		}
	}
}

func TestWindowFilledSymmetric(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	win := AssembleWindow(g, PhiFromTimeStep(1800), 20, 14, 10, 8, 50)
	for j := 1; j < win.NyP-1; j++ {
		for i := 1; i < win.NxP-1; i++ {
			row := win.Row(i, j)
			offs := [9][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {0, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}
			for c, o := range offs {
				ii, jj := i+o[0], j+o[1]
				if ii < 1 || ii >= win.NxP-1 || jj < 1 || jj >= win.NyP-1 {
					continue
				}
				if back := win.Row(ii, jj); row[c] != back[8-c] {
					t.Fatalf("filled window asymmetric at (%d,%d) coef %d", i, j, c)
				}
			}
		}
	}
}
