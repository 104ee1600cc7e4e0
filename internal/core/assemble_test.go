package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/stencil"
)

// TestBlockOperatorsAreTheGlobalOnesSliced: a session assembles each
// block's operator from the grid, and it must be the global operator's
// slice bit for bit — coefficients, mask and runs, halo ring included — on
// every preset but the full 0.1° grid, at two core counts each. Every
// blocking has halo cells outside the domain; the test also requires
// ragged edge blocks.
func TestBlockOperatorsAreTheGlobalOnesSliced(t *testing.T) {
	for _, c := range []struct {
		grid  string
		cores [2]int
	}{
		{grid.PresetTest, [2]int{12, 32}},
		{grid.PresetOneDegree, [2]int{48, 768}},
		{grid.PresetTenthDegreeScaled, [2]int{150, 991}},
	} {
		g, err := grid.ByName(c.grid)
		if err != nil {
			t.Fatal(err)
		}
		phi := stencil.PhiFromTimeStep(g.Tau())
		op := stencil.Assemble(g, phi)
		for _, cores := range c.cores {
			s, err := BuildSession(g, phi, cores, 0, nil, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Setup(); err != nil {
				t.Fatal(err)
			}
			ragged := false
			for r, rs := range s.perRank {
				for i, got := range rs.locs {
					b := &s.D.Blocks[s.D.ByRank[r][i]]
					ragged = ragged || b.NxI < s.D.BlockNx || b.NyI < s.D.BlockNy
					if diff := localDiff(got, s.D.LocalOperator(op, b)); diff != "" {
						t.Fatalf("%s/%d block (%d,%d): %s", c.grid, cores, b.BI, b.BJ, diff)
					}
				}
			}
			if !ragged {
				t.Errorf("%s/%d: %d×%d blocks tile the grid evenly; the case wants ragged edges",
					c.grid, cores, s.D.BlockNx, s.D.BlockNy)
			}
		}
	}
}

// localDiff names the first difference in bits between two block
// operators, or returns "".
func localDiff(a, b *stencil.Local) string {
	if a.NxP != b.NxP || a.NyP != b.NyP || a.H != b.H {
		return fmt.Sprintf("shape %d×%d/%d, want %d×%d/%d", a.NxP, a.NyP, a.H, b.NxP, b.NyP, b.H)
	}
	for _, f := range []struct {
		name string
		a, b []float64
	}{{"AC", a.AC, b.AC}, {"AN", a.AN, b.AN}, {"AE", a.AE, b.AE}, {"ANE", a.ANE, b.ANE}} {
		for k := range f.a {
			if math.Float64bits(f.a[k]) != math.Float64bits(f.b[k]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", f.name, k, f.a[k], f.b[k])
			}
		}
	}
	for k := range a.Mask {
		if a.Mask[k] != b.Mask[k] {
			return fmt.Sprintf("Mask[%d] = %v", k, a.Mask[k])
		}
	}
	if fmt.Sprint(a.Runs) != fmt.Sprint(b.Runs) {
		return fmt.Sprintf("Runs %v, want %v", a.Runs, b.Runs)
	}
	return ""
}

// TestEVPTilesKeepTheirBits: the filled windows the EVP preconditioner
// marches on are unchanged since they moved onto the one element loop.
// The hash covers every tile of the 1°/48 blocking (P-CSI+EVP's benchmark
// shape at τ = 1,920 s) and was taken from AssembleWindowFilled before
// the move.
func TestEVPTilesKeepTheirBits(t *testing.T) {
	const want uint64 = 0xf8ad77782bc63fe5
	g := grid.OneDegree()
	phi := stencil.PhiFromTimeStep(1920)
	s, err := BuildSession(g, phi, 48, 0, nil, nil, Options{Precond: PrecondEVP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Setup(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	tiles := 0
	for r, rs := range s.perRank {
		for i, pre := range rs.pre {
			b := &s.D.Blocks[s.D.ByRank[r][i]]
			for _, tl := range pre.(*evpPrecond).tiles {
				if tl.sol == nil {
					continue // all land: no window
				}
				tiles++
				win := stencil.AssembleWindow(g, phi, b.X0+tl.x0, b.Y0+tl.y0, tl.nx, tl.ny, evpFillDepth)
				word(uint64(b.X0 + tl.x0))
				word(uint64(b.Y0 + tl.y0))
				for _, arr := range [][]float64{win.AC, win.AN, win.AE, win.ANE} {
					for _, v := range arr {
						word(math.Float64bits(v))
					}
				}
				for _, m := range win.Mask {
					if m {
						word(1)
					} else {
						word(0)
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("%d EVP tiles hash to %#x, want %#x", tiles, got, want)
	}
}
