package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/stencil"
)

// TestEVPApplyTileKinds drives evpPrecond.Apply over one block that holds
// every kind of tile — all-ocean (moved by row copy), mixed (masked
// gather/scatter), all-land (identity) and adaptively split — and pins what
// each path may and may not touch.
func TestEVPApplyTileKinds(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(20000))
	d, err := decomp.New(g, g.Nx, g.Ny, decomp.DefaultHalo) // the whole grid as one block
	if err != nil {
		t.Fatal(err)
	}
	blk := &d.Blocks[d.OceanBlocks[0]]
	loc := d.LocalOperator(op, blk)
	const size = 8
	p, err := newEVPPrecond(g, op.Phi, blk, loc, size)
	if err != nil {
		t.Fatal(err)
	}
	var allOcean, mixed, land, split int
	for _, tl := range p.tiles {
		switch {
		case tl.sol == nil:
			land++
		case tl.allOcean:
			allOcean++
		default:
			mixed++
		}
		if tl.nx*tl.ny < size*size { // the grid divides into whole 8×8 tiles
			split++
		}
	}
	if allOcean == 0 || mixed == 0 || land == 0 || split == 0 {
		t.Fatalf("block no longer has every tile kind: %d all-ocean, %d mixed, %d all-land, %d split",
			allOcean, mixed, land, split)
	}

	n := loc.NxP * loc.NyP
	rng := rand.New(rand.NewSource(5))
	src := make([]float64, n)
	for k := range src {
		src[k] = rng.NormFloat64() // land and halo entries too: Apply must not care
	}
	sentinel := math.Float64frombits(0x7ff8_0000_dead_beef)
	apply := func() []float64 {
		dst := make([]float64, n)
		for k := range dst {
			dst[k] = sentinel
		}
		p.Apply(dst, src)
		return dst
	}
	bits := math.Float64bits
	interior := func(k int) bool {
		i, j := k%loc.NxP, k/loc.NxP
		return i >= loc.H && i < loc.NxP-loc.H && j >= loc.H && j < loc.NyP-loc.H
	}

	// Nothing clears the scratch windows any more, so what an earlier tile
	// (or solve) left in them must not reach the answer.
	for k := range p.psi {
		p.psi[k], p.x[k] = math.NaN(), math.NaN()
	}
	dst := apply()
	for k, v := range dst {
		switch {
		case !interior(k):
			if bits(v) != bits(sentinel) {
				t.Fatalf("halo entry %d written: %v", k, v)
			}
		case !loc.Mask[k]:
			if bits(v) != bits(src[k]) {
				t.Fatalf("land point %d is not the identity: %v, src %v", k, v, src[k])
			}
		case math.IsNaN(v):
			t.Fatalf("ocean point %d is NaN: stale scratch leaked into the solve", k)
		}
	}

	if a := testing.AllocsPerRun(10, func() { p.Apply(dst, src) }); a != 0 {
		t.Fatalf("Apply allocates %v times per call, want 0", a)
	}

	// The copy path is the masked path with the mask known to be all true.
	for ti := range p.tiles {
		p.tiles[ti].allOcean = false
	}
	for k, v := range apply() {
		if bits(v) != bits(dst[k]) {
			t.Fatalf("entry %d: masked path %v, copy path %v", k, v, dst[k])
		}
	}
}

// newEVPPrecond records the largest marching growth among the tiles it
// keeps. At τ = 20000 s on the 20×16 grid every kept tile marches at or
// under maxMarchGrowth. At τ = 100 s the mass term dominates the operator
// and tiles of 2×2 and smaller, which cannot be split further, march with
// growth up to 1.2e7: they are kept, and the recorded growth shows it.
func TestEVPRecordsTheLargestKeptGrowth(t *testing.T) {
	g := hostileBase()
	d, err := decomp.New(g, g.Nx, g.Ny, decomp.DefaultHalo) // the whole grid as one block
	if err != nil {
		t.Fatal(err)
	}
	blk := &d.Blocks[d.OceanBlocks[0]]
	for _, c := range []struct{ tau, lo, hi float64 }{
		{20000, 1, maxMarchGrowth},
		{100, 1e6, 1e8},
	} {
		op := stencil.Assemble(g, stencil.PhiFromTimeStep(c.tau))
		p, err := newEVPPrecond(g, op.Phi, blk, d.LocalOperator(op, blk), 8)
		if err != nil {
			t.Fatalf("τ = %g: %v", c.tau, err)
		}
		if p.maxGrowth < c.lo || p.maxGrowth > c.hi {
			t.Errorf("τ = %g: largest kept growth %.3g, want in [%g, %g]", c.tau, p.maxGrowth, c.lo, c.hi)
		}
	}
}
