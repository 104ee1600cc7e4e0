package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/linalg"
	"repro/internal/stencil"
)

// fixture bundles a grid/operator/decomposition/world for solver tests.
type fixture struct {
	g  *grid.Grid
	op *stencil.Operator
	d  *decomp.Decomposition
	w  *comm.World
	b  []float64
}

// newFixture builds a solver test problem. tau controls conditioning: the
// larger it is, the smaller the mass term and the harder the solve.
func newFixture(t *testing.T, g *grid.Grid, bx, by int, tau float64) *fixture {
	t.Helper()
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(tau))
	d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
	if err != nil {
		t.Fatal(err)
	}
	d.AssignOnePerRank()
	w, err := comm.NewWorld(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2023))
	b := make([]float64, g.N())
	for k := range b {
		if g.Mask[k] {
			b[k] = rng.NormFloat64()
		}
	}
	return &fixture{g: g, op: op, d: d, w: w, b: b}
}

func testFixture(t *testing.T) *fixture {
	return newFixture(t, grid.Generate(grid.TestSpec()), 16, 12, 20000)
}

func (f *fixture) session(t *testing.T, opts Options) *Session {
	t.Helper()
	s, err := NewSession(f.g, f.op, f.d, f.w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// denseReference solves the full system directly (small grids only).
func (f *fixture) denseReference(t *testing.T) []float64 {
	t.Helper()
	dm := f.op.Dense()
	lu, err := linalg.Factor(dm)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(f.b))
	copy(x, f.b)
	lu.Solve(x)
	return x
}

func maxOceanErr(g *grid.Grid, got, want []float64) float64 {
	var m, scale float64
	for k := range want {
		if !g.Mask[k] {
			continue
		}
		if a := math.Abs(want[k]); a > scale {
			scale = a
		}
	}
	for k := range want {
		if !g.Mask[k] {
			continue
		}
		if d := math.Abs(got[k] - want[k]); d > m {
			m = d
		}
	}
	return m / scale
}

var allSolvers = map[string]Method{
	"chrongear": MethodChronGear,
	"pcg":       MethodPCG,
	"pcsi":      MethodPCSI,
	"sstep":     MethodSStep,
}

// hostileMasks are hand-drawn geometries for the dense-reference table, on a
// 20×16 grid cut into 5×4 blocks: block seams at x = 5, 10, 15 and
// y = 4, 8, 12, with the four-block corner (10, 8) in the middle. Each is a
// shape the friendly synthetic continents do not produce.
var hostileMasks = []struct {
	name  string
	ocean func(i, j int) bool
}{
	// One rank holding one wet cell with no wet corner: A is its mass term.
	{"single-cell", func(i, j int) bool { return i == 7 && j == 6 }},
	// An open basin whose block (1, 1) is all land, so the decomposition
	// drops it and four ranks border a hole.
	{"land-block", func(i, j int) bool { return i < 5 || i >= 10 || j < 4 || j >= 8 }},
	// A two-cell wall on the x = 10 seam, crossed by a one-cell strait at
	// j = 6. The strait's two cells have no wet corner, so they couple to
	// nothing and the basins either side are disconnected: A splits at the
	// seam, with a mass-term row on each side of it.
	{"seam-strait", func(i, j int) bool { return (i != 9 && i != 10) || j == 6 }},
	// A 2×2 island centred on the four-block corner: each of the four
	// blocks owns one of its cells, in the corner of every other's halo.
	{"corner-island", func(i, j int) bool { return (i != 9 && i != 10) || (j != 7 && j != 8) }},
}

// withMask returns a copy of g with mask ocean: g's metrics, g's depth on
// cells g already had wet and 1000 m on the rest, and the corner depths
// rederived (HU is the shallowest of four wet cells, 0 beside any land).
func withMask(g *grid.Grid, ocean func(i, j int) bool) *grid.Grid {
	h := *g
	h.Mask = make([]bool, g.N())
	h.HT = make([]float64, g.N())
	h.HU = make([]float64, g.N())
	for j := range g.Ny {
		for i := range g.Nx {
			if k := g.Idx(i, j); ocean(i, j) {
				h.Mask[k], h.HT[k] = true, cmp.Or(g.HT[k], 1000)
			}
		}
	}
	for j := range g.Ny {
		for i := range g.Nx {
			if h.IsOcean(i, j) && h.IsOcean(i+1, j) && h.IsOcean(i, j+1) && h.IsOcean(i+1, j+1) {
				h.HU[h.Idx(i, j)] = min(h.HT[h.Idx(i, j)], h.HT[h.Idx(i+1, j)],
					h.HT[h.Idx(i, j+1)], h.HT[h.Idx(i+1, j+1)])
			}
		}
	}
	return &h
}

// referenceGeometry is one grid of the answer oracle and the metamorphic
// checks, with the blocking its dense-reference rows run on. plateaus names
// the dense-reference rows ("sstep-evp/s8") that stop short of Tol on it
// with a *NotConvergedError: s-step plateaus, still open.
type referenceGeometry struct {
	name     string
	g        *grid.Grid
	bx, by   int
	plateaus []string
}

// referenceGeometries is the friendly 40×32 synthetic grid in 10×8 blocks,
// each of the hostileMasks on a 20×16 grid in 5×4 blocks, and that grid's
// own continents in blocks one cell wide (1×4) and one cell tall (5×1):
// blocks the stencil's one-cell halo makes legal, where every halo cell of
// one side is a neighbour's whole row or column.
func referenceGeometries(t *testing.T) []referenceGeometry {
	t.Helper()
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 40, 32
	geoms := []referenceGeometry{{"friendly", grid.Generate(spec), 10, 8, nil}}
	base := hostileBase()
	for _, h := range hostileMasks {
		geoms = append(geoms, referenceGeometry{h.name, withMask(base, h.ocean), 5, 4, nil})
	}
	geoms = append(geoms, referenceGeometry{"thin-columns", base, 1, 4, nil},
		referenceGeometry{"thin-rows", base, 5, 1, []string{"sstep-evp/s8"}})
	for _, geom := range geoms {
		if err := geom.g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return geoms
}

// hostileBase is the 20×16 synthetic grid whose metrics the hostile masks
// (and FuzzDenseReference's) are drawn over.
func hostileBase() *grid.Grid {
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 20, 16
	return grid.Generate(spec)
}

// solverRow is one (method, preconditioner) pair of solverRows.
type solverRow struct {
	m  Method
	pc PrecondType
}

// solverRows lists every methods row × preconditioner the oracles hold to
// an answer: all of them except the Chebyshev methods without a
// preconditioner. Plain CSI on the raw operator is impractical: the
// unpreconditioned spectrum's lower edge is clustered and Lanczos cannot
// bracket it in few steps (this is why Hu 2013 and the paper always pair
// CSI with at least diagonal scaling; TestUnpreconditionedCSIIsImpractical
// pins it). The s-step Chebyshev basis leans on the same Lanczos interval and inherits
// the restriction.
func solverRows() []solverRow {
	var rows []solverRow
	for i, spec := range methods {
		for _, pc := range precondSpellings {
			if spec.diverged == "" || pc.value != PrecondIdentity {
				rows = append(rows, solverRow{Method(i), pc.value})
			}
		}
	}
	return rows
}

// maxEVPGrowth is the largest marching growth among the EVP tiles s
// accepted (0 when s has no EVP preconditioner).
func maxEVPGrowth(s *Session) float64 {
	var g float64
	for _, rs := range s.perRank {
		for _, pre := range rs.pre {
			if p, ok := pre.(*evpPrecond); ok {
				g = max(g, p.maxGrowth)
			}
		}
	}
	return g
}

// TestSolversMatchDenseReference is the answer oracle: every row of the
// methods table × preconditioner × worker shards ∈ {1, 4} (× s ∈ {1, 4, 8}
// for s-step) must reproduce the dense LU solution, on the friendly 40×32
// synthetic grid and on each hostile mask. The threads-4 rows run every
// collective of the driver and the recurrences across four shards. EVP
// rows also hold every tile the preconditioner kept to the marching-growth
// bound. A row a geometry lists in plateaus must instead end in
// ErrNotConverged, on an answer still within 1e-9 of dense LU — FuzzDenseReference's
// contract, pinned per row so that a new stop, or a listed row that starts
// converging, fails.
func TestSolversMatchDenseReference(t *testing.T) {
	for _, geom := range referenceGeometries(t) {
		f := newFixture(t, geom.g, geom.bx, geom.by, 20000)
		want := f.denseReference(t)
		x0 := make([]float64, f.g.N())
		for _, row := range solverRows() {
			m, pc := row.m, row.pc
			ss := []int{DefaultSStep}
			if m == MethodSStep {
				ss = []int{1, 4, 8}
			}
			for _, threads := range []int{1, 4} {
				for _, sstep := range ss {
					key := fmt.Sprintf("%v-%v", m, pc)
					name := fmt.Sprintf("%s/%s/threads%d", geom.name, key, threads)
					if m == MethodSStep {
						key += fmt.Sprintf("/s%d", sstep)
						name += fmt.Sprintf("/s%d", sstep)
					}
					t.Run(name, func(t *testing.T) {
						f.w.SetThreads(threads)
						s := f.session(t, Options{Precond: pc, Tol: 1e-12, SStep: sstep})
						res, x, err := s.Solve(m, f.b, x0)
						if slices.Contains(geom.plateaus, key) {
							if !errors.Is(err, ErrNotConverged) {
								t.Fatalf("listed as a plateau, ended with %v (converged=%v after %d iterations)",
									err, res.Converged, res.Iterations)
							}
						} else if err != nil {
							t.Fatal(err)
						} else if !res.Converged {
							t.Fatalf("did not converge in %d iterations (rel res %g)",
								res.Iterations, res.RelResidual)
						}
						if e := maxOceanErr(f.g, x, want); e > 1e-9 {
							t.Fatalf("solution error %g", e)
						}
						// Land rows must be exact identity: x = b.
						for k, wet := range f.g.Mask {
							if !wet && x[k] != f.b[k] {
								t.Fatalf("land row %d not identity", k)
							}
						}
						if g := maxEVPGrowth(s); pc == PrecondEVP && (g <= 0 || g > maxMarchGrowth) {
							t.Fatalf("largest accepted EVP marching growth %g, want in (0, %g]", g, float64(maxMarchGrowth))
						}
					})
				}
			}
		}
	}
}

func TestPreconditioningReducesIterations(t *testing.T) {
	// The paper's Fig. 6 shape: EVP cuts iterations vs diagonal for both
	// solvers; diagonal cuts vs identity.
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	iters := func(name string, pc PrecondType) int {
		s := f.session(t, Options{Precond: pc})
		res, _, err := s.Solve(allSolvers[name], f.b, x0)
		if err != nil {
			t.Fatalf("%s/%v: %v", name, pc, err)
		}
		if !res.Converged {
			t.Fatalf("%s/%v did not converge", name, pc)
		}
		return res.Iterations
	}
	for _, name := range []string{"chrongear", "pcsi"} {
		diag := iters(name, PrecondDiagonal)
		evp := iters(name, PrecondEVP)
		if evp >= diag {
			t.Fatalf("%s iterations not improving: diag=%d evp=%d", name, diag, evp)
		}
		if name == "chrongear" {
			none := iters(name, PrecondIdentity)
			if diag > none {
				t.Fatalf("%s: diagonal (%d iters) should not lose to identity (%d)", name, diag, none)
			}
		}
	}
}

func TestUnpreconditionedCSIIsImpractical(t *testing.T) {
	// Documents the behaviour the paper designs around: without at least
	// diagonal scaling, the spectrum's lower edge defeats few-step Lanczos
	// estimation and CSI contracts impractically slowly — even with the
	// slow-convergence interval widening it makes little progress in a
	// budget that is ample for every preconditioned configuration.
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondIdentity, MaxIters: 300})
	res, _, err := s.Solve(MethodPCSI, f.b, make([]float64, f.g.N()))
	if err == nil {
		t.Skip("unpreconditioned CSI converged quickly; grid too easy to demonstrate")
	}
	if !errors.Is(err, ErrNotConverged) {
		t.Fatal(err)
	}
	if res.RelResidual < 1e-12 {
		t.Fatalf("expected slow convergence, residual %g", res.RelResidual)
	}
}

// P-CSI's slow-convergence guard widens ν when a mode sits below the
// interval, and only then. A ν 20× above the converged one misses the
// spectrum's low end: the guard must widen it and the solve converge. A ν
// 10× below it brackets the spectrum at κ ≈ 4,500, where the interval
// promises less than 0.8 per check: the guard must leave it alone and the
// solve converge at the interval's rate. A fixed 0.8 threshold widened that
// interval six times and ran out of 4,000 iterations.
func TestPCSIWidensOnlyAnIntervalThatMissesTheSpectrum(t *testing.T) {
	f := testFixture(t)
	for _, c := range []struct {
		scale float64
		widen bool
	}{{20, true}, {0.1, false}} {
		s := f.session(t, Options{Precond: PrecondDiagonal, MaxIters: 4000})
		nu, _, _, err := s.EstimateEigenvalues(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Nu = nu * c.scale
		res, _, err := s.Solve(MethodPCSI, f.b, make([]float64, f.g.N()))
		if err != nil {
			t.Fatal(err)
		}
		if widened := len(res.Trace.Intervals) > 0; !res.Converged || widened != c.widen {
			t.Errorf("ν × %g: converged=%v after %d iterations with interval events %+v, want widened=%v",
				c.scale, res.Converged, res.Iterations, res.Trace.Intervals, c.widen)
		}
	}
}

func TestPCSINeedsMoreIterationsThanChronGear(t *testing.T) {
	// §3: K_pcsi > K_cg for the same tolerance.
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	sCG := f.session(t, Options{Precond: PrecondDiagonal})
	rCG, _, err := sCG.Solve(MethodChronGear, f.b, x0)
	if err != nil {
		t.Fatal(err)
	}
	sCSI := f.session(t, Options{Precond: PrecondDiagonal})
	rCSI, _, err := sCSI.Solve(MethodPCSI, f.b, x0)
	if err != nil {
		t.Fatal(err)
	}
	if rCSI.Iterations <= rCG.Iterations {
		t.Fatalf("expected K_pcsi > K_cg, got %d vs %d", rCSI.Iterations, rCG.Iterations)
	}
}

func TestChronGearEquivalentToPCG(t *testing.T) {
	// ChronGear is algebraically a CG rearrangement: iteration counts at the
	// same tolerance should be essentially identical (within one check
	// interval) and solutions should agree tightly.
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	sA := f.session(t, Options{Precond: PrecondDiagonal})
	rA, xA, err := sA.Solve(MethodChronGear, f.b, x0)
	if err != nil {
		t.Fatal(err)
	}
	sB := f.session(t, Options{Precond: PrecondDiagonal})
	rB, xB, err := sB.Solve(MethodPCG, f.b, x0)
	if err != nil {
		t.Fatal(err)
	}
	if d := rA.Iterations - rB.Iterations; d < -10 || d > 10 {
		t.Fatalf("ChronGear %d vs PCG %d iterations", rA.Iterations, rB.Iterations)
	}
	if e := maxOceanErr(f.g, xA, xB); e > 1e-8 {
		t.Fatalf("ChronGear/PCG solutions differ by %g", e)
	}
}

func TestSolveDeterministic(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	run := func() []float64 {
		s := f.session(t, Options{Precond: PrecondEVP})
		_, x, err := s.Solve(MethodPCSI, f.b, x0)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	xa, xb := run(), run()
	for k := range xa {
		if xa[k] != xb[k] {
			t.Fatalf("solve not bitwise deterministic at %d", k)
		}
	}
}

// rankLayouts are the blockings TestRankCountInvariance and the symmetry
// checks run a reference geometry on: the whole grid as one block, the
// geometry's own blocking, and one a cell narrower each way (a one-cell
// side stays one cell), whose seams cut the hostile shapes elsewhere.
func rankLayouts(geom referenceGeometry) [][2]int {
	return [][2]int{{geom.g.Nx, geom.g.Ny}, {geom.bx, geom.by}, {max(geom.bx-1, 1), max(geom.by-1, 1)}}
}

// TestRankCountInvariance: the same problem on different rank counts
// (including serial) must give the same answer to solver tolerance, for
// every methods row × preconditioner on every reference geometry.
func TestRankCountInvariance(t *testing.T) {
	if raceEnabled {
		t.Skip("255 solves of pure arithmetic: ~13 s under the race detector, which TestSolversMatchDenseReference's threads-4 rows already bring to the same rows; verify.sh runs this at GOMAXPROCS=1 without it")
	}
	for _, geom := range referenceGeometries(t) {
		var fixtures []*fixture
		for _, blocking := range rankLayouts(geom) {
			f := newFixture(t, geom.g, blocking[0], blocking[1], 20000)
			f.w.SetThreads(4)
			fixtures = append(fixtures, f)
		}
		for _, row := range solverRows() {
			t.Run(fmt.Sprintf("%s/%v-%v", geom.name, row.m, row.pc), func(t *testing.T) {
				var ref []float64
				for _, f := range fixtures {
					s := f.session(t, Options{Precond: row.pc, Tol: 1e-12})
					res, x, err := s.Solve(row.m, f.b, make([]float64, f.g.N()))
					if err != nil {
						t.Fatalf("%d ranks: %v", f.d.NRanks, err)
					}
					if !res.Converged {
						t.Fatalf("%d ranks did not converge", f.d.NRanks)
					}
					if ref == nil {
						ref = append([]float64(nil), x...)
						continue
					}
					if e := maxOceanErr(f.g, x, ref); e > 1e-8 {
						t.Fatalf("%d ranks: deviation %g from the serial answer", f.d.NRanks, e)
					}
				}
			})
		}
	}
}

// applyBlockwise applies a per-block operator to the global field x the
// way a solve does, block by block on s's rank layout: scatter x with its
// halo, apply(rank state, block index on the rank, dst, src), gather the
// interior.
func applyBlockwise(s *Session, x []float64, apply func(rs *rankState, i int, dst, src []float64)) []float64 {
	y := make([]float64, len(x))
	for rid, ids := range s.D.ByRank {
		for i, id := range ids {
			b := &s.D.Blocks[id]
			src := s.D.Scatter(x, b)
			dst := make([]float64, len(src))
			apply(s.perRank[rid], i, dst, src)
			s.D.GatherInto(y, dst, b)
		}
	}
	return y
}

// oceanNoise is a standard normal field on ocean points, zero on land.
func oceanNoise(g *grid.Grid, rng *rand.Rand) []float64 {
	v := make([]float64, g.N())
	for k, wet := range g.Mask {
		if wet {
			v[k] = rng.NormFloat64()
		}
	}
	return v
}

// TestMetamorphicRelations holds three relations that need no reference
// answer, on every reference geometry:
//   - spd: on every rank layout, ⟨Ax,y⟩ = ⟨x,Ay⟩ for the blockwise
//     operator, and each preconditioner's M⁻¹ is symmetric with
//     ⟨M⁻¹x,x⟩ > 0;
//   - linear: the answer is linear in the right-hand side,
//     solve(αb₁+βb₂) = α·solve(b₁) + β·solve(b₂);
//   - warm: a solve started from the converged x reaches the cold start's
//     fixed point.
//
// The solves run every solverRows pair at threads 4 on the geometry's own
// blocking, to tolerance 1e-12; both solve relations hold to 1e-10 (the
// largest seen is 9e-13).
func TestMetamorphicRelations(t *testing.T) {
	if raceEnabled {
		t.Skip("~400 solves and operator applies of pure arithmetic: ~19 s under the race detector, which TestSolversMatchDenseReference's threads-4 rows already bring to the same rows; verify.sh runs this at GOMAXPROCS=1 without it")
	}
	const alpha, beta = 0.3, -1.7
	for _, geom := range referenceGeometries(t) {
		rng := rand.New(rand.NewSource(7))
		x, y := oceanNoise(geom.g, rng), oceanNoise(geom.g, rng)
		for _, blocking := range rankLayouts(geom) {
			f := newFixture(t, geom.g, blocking[0], blocking[1], 20000)
			for _, pc := range precondSpellings {
				t.Run(fmt.Sprintf("%s/%dx%d/%v/spd", geom.name, blocking[0], blocking[1], pc.value), func(t *testing.T) {
					s := f.session(t, Options{Precond: pc.value})
					if err := s.Setup(); err != nil {
						t.Fatal(err)
					}
					symmetric := func(what string, op func([]float64) []float64, tol float64) {
						ox, oy := op(x), op(y)
						if d := math.Abs(f.op.MaskedDot(ox, y)-f.op.MaskedDot(x, oy)) / (f.op.MaskedNorm2(ox) * f.op.MaskedNorm2(y)); d > tol {
							t.Errorf("%s: |⟨Ox,y⟩ − ⟨x,Oy⟩| / ‖Ox‖‖y‖ = %.3g, want ≤ %g", what, d, tol)
						}
						for _, v := range [][]float64{x, y} {
							if q := f.op.MaskedDot(op(v), v); !(q > 0) {
								t.Errorf("%s: ⟨Ov,v⟩ = %g, want > 0", what, q)
							}
						}
					}
					symmetric("A", func(v []float64) []float64 {
						return applyBlockwise(s, v, func(rs *rankState, i int, dst, src []float64) { rs.locs[i].Apply(dst, src) })
					}, 1e-14)
					// EVP's M⁻¹ is symmetric only to its marching round-off,
					// which grows like G²·ε for marching growth G: 1.1e-9 at
					// G = 6.6e3 on land-block's single 20×16 block, under 1e-12
					// on every 5×4 or 4×3 layout.
					g := maxEVPGrowth(s)
					symmetric("M⁻¹", func(v []float64) []float64 {
						return applyBlockwise(s, v, func(rs *rankState, i int, dst, src []float64) { rs.pre[i].Apply(dst, src) })
					}, max(1e-13, g*g*0x1p-52))
				})
			}
		}

		f := newFixture(t, geom.g, geom.bx, geom.by, 20000)
		f.w.SetThreads(4)
		b2 := oceanNoise(f.g, rng)
		mix := make([]float64, f.g.N())
		for k := range mix {
			mix[k] = alpha*f.b[k] + beta*b2[k]
		}
		for _, row := range solverRows() {
			name := fmt.Sprintf("%s/%v-%v", geom.name, row.m, row.pc)
			s := f.session(t, Options{Precond: row.pc, Tol: 1e-12})
			solve := func(t *testing.T, b, x0 []float64) []float64 {
				t.Helper()
				res, x, err := s.Solve(row.m, b, x0)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("did not converge in %d iterations (rel res %g)", res.Iterations, res.RelResidual)
				}
				return append([]float64(nil), x...) // the session reuses its solution buffer
			}
			zero := make([]float64, f.g.N())
			t.Run(name+"/linear", func(t *testing.T) {
				x1, x2, got := solve(t, f.b, zero), solve(t, b2, zero), solve(t, mix, zero)
				want := make([]float64, len(got))
				for k := range want {
					want[k] = alpha*x1[k] + beta*x2[k]
				}
				if e := maxOceanErr(f.g, got, want); e > 1e-10 {
					t.Fatalf("solve(αb₁+βb₂) differs from α·solve(b₁)+β·solve(b₂) by %g", e)
				}
			})
			t.Run(name+"/warm", func(t *testing.T) {
				cold := solve(t, f.b, zero)
				if e := maxOceanErr(f.g, solve(t, f.b, cold), cold); e > 1e-10 {
					t.Fatalf("warm start from the converged answer moved it by %g", e)
				}
			})
		}
	}
}

func TestZeroRHS(t *testing.T) {
	f := testFixture(t)
	zero := make([]float64, f.g.N())
	for name, m := range allSolvers {
		s := f.session(t, Options{Precond: PrecondDiagonal})
		if name == "pcsi" || name == "sstep" {
			// P-CSI and s-step need eigenvalue bounds, which cannot come
			// from a zero RHS — estimate from a nonzero vector first.
			if _, _, _, err := s.EstimateEigenvalues(f.b, 0); err != nil {
				t.Fatal(err)
			}
		}
		res, x, err := s.Solve(m, zero, zero)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Iterations != 0 {
			t.Fatalf("%s: zero RHS should converge instantly, got %+v", name, res)
		}
		for k, v := range x {
			if v != 0 {
				t.Fatalf("%s: nonzero solution at %d", name, k)
			}
		}
	}
}

func TestLanczosBracketsSpectrum(t *testing.T) {
	// On a small grid, compare the Lanczos interval against the true
	// spectrum of M⁻¹A (dense, diagonal M) — [ν, μ] must bracket it after
	// the safety factors.
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 24, 20
	f := newFixture(t, grid.Generate(spec), 12, 10, 20000)
	s := f.session(t, Options{Precond: PrecondDiagonal})
	nu, mu, steps, err := s.EstimateEigenvalues(f.b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if steps < 2 {
		t.Fatalf("suspiciously few Lanczos steps: %d", steps)
	}
	// True extreme eigenvalues of D⁻¹A via power iteration on the dense
	// matrix (shifted for the smallest).
	dm := f.op.Dense()
	n := dm.Rows
	diag := f.op.Diagonal()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dm.Set(i, j, dm.At(i, j)/diag[i])
		}
	}
	lamMax := powerIter(dm, nil, 600)
	lamMin := 0.0
	{
		shift := lamMax * 1.0001
		sh := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := -dm.At(i, j)
				if i == j {
					v += shift
				}
				sh.Set(i, j, v)
			}
		}
		lamMin = shift - powerIter(sh, nil, 600)
	}
	// μ must bracket λ_max (divergence otherwise). The estimate stops on
	// converged Ritz pairs, so ν = 0.85·θ_min with θ_min just above λ_min:
	// ν must sit in [0.8λ_min, λ_min]. A step-to-step stop left ν at ~2λ_min
	// here, outside the band.
	if mu < lamMax {
		t.Fatalf("Lanczos μ=%g below λ_max=%g", mu, lamMax)
	}
	if nu < 0.8*lamMin || nu > lamMin {
		t.Fatalf("Lanczos ν=%g outside [0.8, 1]·λ_min=%g", nu, lamMin)
	}
	if mu > lamMax*3 {
		t.Fatalf("Lanczos μ=%g too loose for λ_max=%g", mu, lamMax)
	}
}

func powerIter(m *linalg.Dense, v0 []float64, iters int) float64 {
	n := m.Rows
	v := v0
	if v == nil {
		v = make([]float64, n)
		rng := rand.New(rand.NewSource(5))
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
	w := make([]float64, n)
	var lam float64
	for it := 0; it < iters; it++ {
		m.MulVec(w, v)
		lam = linalg.Norm2(w)
		for i := range v {
			v[i] = w[i] / lam
		}
	}
	return lam
}

// The adaptive estimate stops on converged extreme Ritz pairs: without the
// safety factors, its ν and μ must be within 5% of the Ritz values a forced
// eigMaxSteps run converges to, from the same start (the default probe). A
// step-to-step change test stops while θ_min is still creeping down the
// spectrum's low tail, 2–4× above its converged value.
func TestLanczosStopsAtConvergedRitzValue(t *testing.T) {
	f := testFixture(t)
	for _, pc := range []PrecondType{PrecondDiagonal, PrecondEVP, PrecondBlockLU} {
		s := f.session(t, Options{Precond: pc})
		nu, mu, steps, err := s.EstimateEigenvalues(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		nu, mu = nu/s.Opts.EigSafetyLow, mu/s.Opts.EigSafetyHigh
		nuInf, muInf, _, err := s.EstimateEigenvalues(nil, eigMaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		nuInf, muInf = nuInf/s.Opts.EigSafetyLow, muInf/s.Opts.EigSafetyHigh
		if math.Abs(nu/nuInf-1) > 0.05 || math.Abs(mu/muInf-1) > 0.05 {
			t.Errorf("%v: adaptive stop at %d steps gave θ ∈ [%g, %g], %d steps converge to [%g, %g] (ν at %.3g×)",
				pc, steps, nu, mu, eigMaxSteps, nuInf, muInf, nu/nuInf)
		}
	}
}

func TestForcedLanczosSteps(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal})
	_, _, steps, err := s.EstimateEigenvalues(f.b, 7)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 7 {
		t.Fatalf("forced 7 Lanczos steps, ran %d", steps)
	}
}

func TestReductionCounts(t *testing.T) {
	// The communication signature is the paper's core claim: ChronGear
	// performs one reduction per iteration (plus ‖b‖ and rides the check on
	// the same reduction), PCG two, P-CSI only one per CheckEvery.
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	perRank := func(res Result) int64 {
		return res.Stats.Sum.Reductions / int64(len(res.Stats.PerRank))
	}

	sCG := f.session(t, Options{Precond: PrecondDiagonal})
	rCG, _, _ := sCG.Solve(MethodChronGear, f.b, x0)
	if got, want := perRank(rCG), int64(rCG.Iterations+1); got != want {
		t.Fatalf("ChronGear reductions %d, want %d", got, want)
	}

	sPCG := f.session(t, Options{Precond: PrecondDiagonal})
	rPCG, _, _ := sPCG.Solve(MethodPCG, f.b, x0)
	if got, want := perRank(rPCG), int64(2*rPCG.Iterations+1); got != want {
		t.Fatalf("PCG reductions %d, want %d", got, want)
	}

	sCSI := f.session(t, Options{Precond: PrecondDiagonal})
	rCSI, _, _ := sCSI.Solve(MethodPCSI, f.b, x0)
	checks := rCSI.Iterations / sCSI.Opts.CheckEvery
	if got, want := perRank(rCSI), int64(checks+1); got != want {
		t.Fatalf("P-CSI reductions %d, want %d (K=%d)", got, want, rCSI.Iterations)
	}
}

func TestSetupStatsRecorded(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondEVP})
	if err := s.Setup(); err != nil {
		t.Fatal(err)
	}
	if s.SetupStats == nil || s.SetupStats.Sum.Flops == 0 {
		t.Fatal("EVP setup should charge preprocessing flops")
	}
	before := s.SetupStats.Sum.Flops
	if err := s.Setup(); err != nil { // idempotent
		t.Fatal(err)
	}
	if s.SetupStats.Sum.Flops != before {
		t.Fatal("Setup not idempotent")
	}
}

func TestOptionsValidation(t *testing.T) {
	f := testFixture(t)
	if _, err := NewSession(nil, f.op, f.d, f.w, Options{}); err == nil {
		t.Fatal("accepted nil grid")
	}
	if _, err := NewSession(f.g, f.op, f.d, f.w, Options{Tol: 2}); err == nil {
		t.Fatal("accepted tolerance ≥ 1")
	}
}

func TestPartitionInterior(t *testing.T) {
	for _, c := range []struct{ nxi, nyi, size, want int }{
		{24, 16, 8, 6}, {25, 16, 8, 8}, {8, 8, 8, 1}, {1, 1, 8, 1}, {17, 9, 8, 6},
	} {
		subs := partitionInterior(c.nxi, c.nyi, c.size)
		if len(subs) != c.want {
			t.Fatalf("partition(%d,%d,%d): %d tiles, want %d", c.nxi, c.nyi, c.size, len(subs), c.want)
		}
		area := 0
		for _, sb := range subs {
			if sb.nx > c.size || sb.ny > c.size || sb.nx < 1 || sb.ny < 1 {
				t.Fatalf("tile out of bounds: %+v", sb)
			}
			area += sb.nx * sb.ny
		}
		if area != c.nxi*c.nyi {
			t.Fatalf("partition(%d,%d,%d) covers %d points, want %d", c.nxi, c.nyi, c.size, area, c.nxi*c.nyi)
		}
	}
}

func TestPrecondTypeString(t *testing.T) {
	names := map[PrecondType]string{
		PrecondIdentity: "none", PrecondDiagonal: "diagonal",
		PrecondEVP: "evp", PrecondBlockLU: "blocklu", PrecondType(99): "PrecondType(99)",
	}
	for pt, want := range names {
		if pt.String() != want {
			t.Fatalf("%d.String()=%q want %q", int(pt), pt.String(), want)
		}
	}
}

// TestFloat64BitwiseAcrossThreads is the scheduler gate at the solver
// level: float64 solutions and residual histories are bitwise identical
// across worker-shard counts, so golden traces stay valid whatever
// -threads says.
func TestFloat64BitwiseAcrossThreads(t *testing.T) {
	f := testFixture(t)
	type run struct {
		x    []float64
		hist []uint64
	}
	solve := func(threads int) run {
		f.w.SetThreads(threads)
		defer f.w.SetThreads(0)
		s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-12})
		res, x, err := s.SolveContext(context.Background(), MethodPCSI, f.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := run{x: make([]float64, len(x))}
		copy(r.x, x)
		for _, p := range res.Trace.Residuals {
			r.hist = append(r.hist, math.Float64bits(p.RelResidual))
		}
		return r
	}
	ref := solve(1)
	for _, threads := range []int{2, 4, 8} {
		got := solve(threads)
		for k := range ref.x {
			if math.Float64bits(got.x[k]) != math.Float64bits(ref.x[k]) {
				t.Fatalf("threads=%d: solution bit-differs at %d", threads, k)
			}
		}
		if len(got.hist) != len(ref.hist) {
			t.Fatalf("threads=%d: %d residual checks vs %d", threads, len(got.hist), len(ref.hist))
		}
		for i := range ref.hist {
			if got.hist[i] != ref.hist[i] {
				t.Fatalf("threads=%d: residual history bit-differs at check %d", threads, i)
			}
		}
	}
}

// chebStep fused P-CSI's dx update and the x += dx that always followed it;
// the fused pass must produce the bits the pair did, at ocean points only:
// land and halo cells keep their sentinel.
func TestChebStepMatchesUpdateThenAxpy(t *testing.T) {
	f := testFixture(t)
	loc := f.d.LocalOperator(f.op, &f.d.Blocks[f.d.OceanBlocks[0]])
	n := loc.NxP * loc.NyP
	rng := rand.New(rand.NewSource(3))
	x, dx, rp := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := range x {
		x[k], dx[k], rp[k] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	seedSentinel(loc, x, dx, rp)
	wantX, wantDx := append([]float64(nil), x...), append([]float64(nil), dx...)
	const omega, c = 0.37, 0.81
	for j := loc.H; j < loc.NyP-loc.H; j++ {
		for i := loc.H; i < loc.NxP-loc.H; i++ {
			if k := j*loc.NxP + i; loc.Mask[k] {
				wantDx[k] = omega*rp[k] + c*wantDx[k]
			}
		}
	}
	axpy(loc, wantX, wantDx, 1)
	chebStep(loc, x, dx, rp, omega, c)
	for k := range x {
		if math.Float64bits(x[k]) != math.Float64bits(wantX[k]) || math.Float64bits(dx[k]) != math.Float64bits(wantDx[k]) {
			t.Fatalf("entry %d: x %v want %v, dx %v want %v", k, x[k], wantX[k], dx[k], wantDx[k])
		}
	}
}
