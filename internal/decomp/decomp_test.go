package decomp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/stencil"
)

func testGrid() *grid.Grid { return grid.Generate(grid.TestSpec()) } // 64×48

func TestNewValidation(t *testing.T) {
	g := testGrid()
	if _, err := New(g, 0, 8, 2); err == nil {
		t.Fatal("accepted zero block width")
	}
	if _, err := New(g, 8, 8, 0); err == nil {
		t.Fatal("accepted zero halo")
	}
	if _, err := New(g, 1, 8, 2); err == nil {
		t.Fatal("accepted block smaller than halo")
	}
}

func TestBlockCoverage(t *testing.T) {
	g := testGrid()
	d, err := New(g, 12, 10, 2) // deliberately not dividing evenly
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, g.N())
	for _, b := range d.Blocks {
		for j := b.Y0; j < b.Y0+b.NyI; j++ {
			for i := b.X0; i < b.X0+b.NxI; i++ {
				seen[g.Idx(i, j)]++
			}
		}
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("point %d covered %d times", k, c)
		}
	}
}

func TestLandElimination(t *testing.T) {
	g := testGrid()
	d, err := New(g, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range d.OceanBlocks {
		if d.Blocks[id].Land {
			t.Fatal("ocean list contains land block")
		}
	}
	// Every eliminated block must truly have no ocean point.
	for _, b := range d.Blocks {
		if b.Land {
			for j := b.Y0; j < b.Y0+b.NyI; j++ {
				for i := b.X0; i < b.X0+b.NxI; i++ {
					if g.Mask[g.Idx(i, j)] {
						t.Fatalf("eliminated block %d contains ocean point (%d,%d)", b.ID, i, j)
					}
				}
			}
		}
	}
	if lr := d.LandRatio(); lr <= 0 || lr >= 1 {
		t.Fatalf("land ratio %v not in (0,1) — geography should have some all-land blocks", lr)
	}
}

func TestAssignBalance(t *testing.T) {
	g := testGrid()
	d, _ := New(g, 8, 8, 2)
	nb := len(d.OceanBlocks)
	for _, nr := range []int{1, 2, 3, nb / 2, nb} {
		if nr < 1 {
			continue
		}
		if err := d.Assign(nr); err != nil {
			t.Fatal(err)
		}
		lo, hi := nb, 0
		total := 0
		for _, blocks := range d.ByRank {
			if len(blocks) < lo {
				lo = len(blocks)
			}
			if len(blocks) > hi {
				hi = len(blocks)
			}
			total += len(blocks)
		}
		if total != nb {
			t.Fatalf("nranks=%d: assigned %d blocks, want %d", nr, total, nb)
		}
		if hi-lo > 1 {
			t.Fatalf("nranks=%d: imbalance %d..%d", nr, lo, hi)
		}
	}
	if err := d.Assign(nb + 1); err == nil {
		t.Fatal("accepted more ranks than blocks")
	}
	if got := d.AssignOnePerRank(); got != nb {
		t.Fatalf("AssignOnePerRank=%d want %d", got, nb)
	}
}

func TestHilbertCurveProperties(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		seen := make(map[[2]int]bool)
		px, py := -1, -1
		for dd := 0; dd < n*n; dd++ {
			x, y := hilbertD2XY(n, dd)
			if x < 0 || x >= n || y < 0 || y >= n {
				t.Fatalf("n=%d d=%d: out of range (%d,%d)", n, dd, x, y)
			}
			if seen[[2]int{x, y}] {
				t.Fatalf("n=%d: cell (%d,%d) visited twice", n, x, y)
			}
			seen[[2]int{x, y}] = true
			if dd > 0 {
				if abs(x-px)+abs(y-py) != 1 {
					t.Fatalf("n=%d d=%d: non-adjacent step (%d,%d)→(%d,%d)", n, dd, px, py, x, y)
				}
			}
			px, py = x, y
		}
	}
}

func TestHilbertOrderCoversRectangle(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {7, 2}} {
		order := hilbertOrder(dims[0], dims[1])
		if len(order) != dims[0]*dims[1] {
			t.Fatalf("dims %v: got %d cells", dims, len(order))
		}
		seen := make(map[int]bool)
		for _, id := range order {
			if id < 0 || id >= dims[0]*dims[1] || seen[id] {
				t.Fatalf("dims %v: bad or repeated id %d", dims, id)
			}
			seen[id] = true
		}
	}
}

func TestSFCLocality(t *testing.T) {
	// Consecutive ocean blocks along the curve should usually be adjacent in
	// the block grid — the locality property that makes contiguous rank runs
	// compact. Compare against row-major order, which has poor locality.
	g := testGrid()
	d, _ := New(g, 4, 4, 2)
	adjacency := func(ids []int) float64 {
		adj := 0
		for k := 1; k < len(ids); k++ {
			a, b := d.Blocks[ids[k-1]], d.Blocks[ids[k]]
			if abs(a.BI-b.BI)+abs(a.BJ-b.BJ) <= 2 {
				adj++
			}
		}
		return float64(adj) / float64(len(ids)-1)
	}
	rowMajor := make([]int, 0, len(d.OceanBlocks))
	for id := range d.Blocks {
		if !d.Blocks[id].Land {
			rowMajor = append(rowMajor, id)
		}
	}
	if adjacency(d.OceanBlocks) <= adjacency(rowMajor) {
		t.Fatalf("SFC adjacency %.2f not better than row-major %.2f",
			adjacency(d.OceanBlocks), adjacency(rowMajor))
	}
}

func TestNeighborID(t *testing.T) {
	g := testGrid()
	d, _ := New(g, 8, 8, 2)
	var b *Block
	for id := range d.Blocks {
		bb := &d.Blocks[id]
		if !bb.Land && bb.BI > 0 && bb.BI < d.MX-1 && bb.BJ > 0 && bb.BJ < d.MY-1 {
			b = bb
			break
		}
	}
	if b == nil {
		t.Skip("no interior ocean block in test grid")
	}
	if id := d.NeighborID(b, 0, 0); id != b.ID {
		t.Fatalf("self neighbor = %d", id)
	}
	edge := &d.Blocks[0]
	if id := d.NeighborID(edge, -1, 0); id != -1 {
		t.Fatal("expected out-of-grid neighbor to be -1")
	}
}

func TestChooseBlocking(t *testing.T) {
	g := testGrid()
	bx, by, cores, err := ChooseBlocking(g, 20, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bx*2 != by*3 {
		t.Fatalf("aspect ratio violated: %d×%d", bx, by)
	}
	if cores <= 0 {
		t.Fatalf("no cores: %d", cores)
	}
	if _, _, _, err := ChooseBlocking(g, 0, 3, 2); err == nil {
		t.Fatal("accepted target 0")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	g := testGrid()
	d, _ := New(g, 12, 10, 2)
	rng := rand.New(rand.NewSource(2))
	global := make([]float64, g.N())
	for k := range global {
		global[k] = rng.NormFloat64()
	}
	out := make([]float64, g.N())
	for id := range d.Blocks {
		b := &d.Blocks[id]
		loc := d.Scatter(global, b)
		d.GatherInto(out, loc, b)
	}
	for k := range global {
		if out[k] != global[k] {
			t.Fatalf("round trip mismatch at %d", k)
		}
	}
}

func TestScatterFillsHalo(t *testing.T) {
	g := testGrid()
	d, _ := New(g, 12, 10, 2)
	global := make([]float64, g.N())
	for k := range global {
		global[k] = float64(k)
	}
	// Pick an interior block and verify halo values equal global neighbours.
	for id := range d.Blocks {
		b := &d.Blocks[id]
		if b.BI == 0 || b.BJ == 0 || b.BI == d.MX-1 || b.BJ == d.MY-1 {
			continue
		}
		loc := d.Scatter(global, b)
		// halo point (0,0) corresponds to global (X0-2, Y0-2)
		want := global[g.Idx(b.X0-2, b.Y0-2)]
		if loc[0] != want {
			t.Fatalf("halo fill wrong: %v want %v", loc[0], want)
		}
		return
	}
	t.Skip("no interior block")
}

func TestLocalOperatorMatchesGlobalApply(t *testing.T) {
	g := testGrid()
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(1200))
	d, _ := New(g, 16, 12, 2)
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, g.N())
	for k := range x {
		x[k] = rng.NormFloat64()
	}
	yGlobal := make([]float64, g.N())
	op.Apply(yGlobal, x)
	// Local.Apply writes ocean points only: every land entry keeps the
	// sentinel it was seeded with, and the ocean ones match the global
	// Apply.
	const sentinel = -12345.0
	yFromBlocks := make([]float64, g.N())
	for id := range d.Blocks {
		b := &d.Blocks[id]
		loc := d.LocalOperator(op, b)
		xl := d.Scatter(x, b)
		yl := make([]float64, len(xl))
		for k := range yl {
			yl[k] = sentinel
		}
		loc.Apply(yl, xl)
		d.GatherInto(yFromBlocks, yl, b)
	}
	for k := range yGlobal {
		if !g.Mask[k] {
			if yFromBlocks[k] != sentinel {
				t.Fatalf("land point %d written: %v", k, yFromBlocks[k])
			}
			continue
		}
		if math.Abs(yGlobal[k]-yFromBlocks[k]) > 1e-12*(math.Abs(yGlobal[k])+1) {
			t.Fatalf("blocked apply mismatch at %d: %v vs %v", k, yGlobal[k], yFromBlocks[k])
		}
	}
}

// Property: for random block sizes, decomposition covers the grid exactly
// and interior+halo stays within padded bounds.
func TestQuickDecompositionCoverage(t *testing.T) {
	g := testGrid()
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(31))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bx := 2 + rng.Intn(20)
		by := 2 + rng.Intn(20)
		d, err := New(g, bx, by, 2)
		if err != nil {
			return true // invalid sizes are allowed to error
		}
		count := 0
		for _, b := range d.Blocks {
			count += b.NxI * b.NyI
			nxp, nyp := d.PaddedDims(&b)
			if nxp != b.NxI+4 || nyp != b.NyI+4 {
				return false
			}
		}
		return count == g.N()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestMaskPrefixCounts(t *testing.T) {
	g := testGrid()
	p := newMaskPrefix(g)
	brute := func(x0, y0, x1, y1 int) int32 {
		var n int32
		for j := y0; j < y1; j++ {
			for i := x0; i < x1; i++ {
				if g.Mask[g.Idx(i, j)] {
					n++
				}
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		x0, y0 := rng.Intn(g.Nx), rng.Intn(g.Ny)
		x1 := x0 + rng.Intn(g.Nx-x0) + 1
		y1 := y0 + rng.Intn(g.Ny-y0) + 1
		if got, want := p.rectOcean(x0, y0, x1, y1), brute(x0, y0, x1, y1); got != want {
			t.Fatalf("rect [%d,%d)x[%d,%d): %d want %d", x0, x1, y0, y1, got, want)
		}
	}
}

func TestOceanBlocksMatchesDecomposition(t *testing.T) {
	g := testGrid()
	p := newMaskPrefix(g)
	for _, b := range [][2]int{{6, 4}, {12, 8}, {9, 6}} {
		d, err := New(g, b[0], b[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.oceanBlocks(g, b[0], b[1]), len(d.OceanBlocks); got != want {
			t.Fatalf("blocking %v: prefix count %d, decomposition %d", b, got, want)
		}
	}
}

func TestChooseBlockingNearTarget(t *testing.T) {
	g := testGrid()
	for _, target := range []int{5, 20, 60, 150} {
		_, _, cores, err := ChooseBlocking(g, target, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		// The chosen blocking should land within a factor ~2.5 of the target
		// (quantization between aspect-preserving candidates).
		if cores < target/3 || cores > target*3 {
			t.Fatalf("target %d: got %d cores", target, cores)
		}
	}
}
