package stencil

import (
	"math"
	"math/rand"
	"testing"
)

// poisonedLocal builds a Local with random coefficients and a random mask
// whose padded cells outside halo ring 1 — cells no nine-point kernel may
// touch — hold NaN, and a field x poisoned the same way.
func poisonedLocal(rng *rand.Rand, nxi, nyi, h int) (*Local, []float64) {
	nxp, nyp := nxi+2*h, nyi+2*h
	l := &Local{NxP: nxp, NyP: nyp, H: h, Mask: make([]bool, nxp*nyp)}
	fill := func() []float64 {
		f := make([]float64, nxp*nyp)
		for j := 0; j < nyp; j++ {
			for i := 0; i < nxp; i++ {
				f[j*nxp+i] = rng.NormFloat64()
				if i < h-1 || i > nxp-h || j < h-1 || j > nyp-h {
					f[j*nxp+i] = math.NaN()
				}
			}
		}
		return f
	}
	l.AC, l.AN, l.AE, l.ANE = fill(), fill(), fill(), fill()
	for k := range l.Mask {
		l.Mask[k] = rng.Intn(3) != 0
	}
	return l, fill()
}

// The row-window kernels against a naive indexed nine-term sum, bit for
// bit, over every interior shape up to 20×20 and both halo widths: nothing
// outside ring 1 may be read (the poison would surface as NaN) and no halo
// cell of y may be written.
func TestApplyMatchesNaiveNinePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for h := 1; h <= 2; h++ {
		for nyi := 1; nyi <= 20; nyi++ {
			for nxi := 1; nxi <= 20; nxi++ {
				l, x := poisonedLocal(rng, nxi, nyi, h)
				nx := l.NxP
				const sentinel = -12345.0
				want := make([]float64, len(x))
				for k := range want {
					want[k] = sentinel
				}
				var wantDot float64
				for j := h; j < l.NyP-h; j++ {
					for i := h; i < nx-h; i++ {
						k := j*nx + i
						want[k] = l.AC[k]*x[k] +
							l.AN[k]*x[k+nx] + l.AN[k-nx]*x[k-nx] +
							l.AE[k]*x[k+1] + l.AE[k-1]*x[k-1] +
							l.ANE[k]*x[k+nx+1] + l.ANE[k-nx]*x[k-nx+1] +
							l.ANE[k-1]*x[k+nx-1] + l.ANE[k-nx-1]*x[k-nx-1]
						if l.Mask[k] {
							wantDot += x[k] * want[k]
						}
					}
				}
				y1, y2 := make([]float64, len(x)), make([]float64, len(x))
				for k := range y1 {
					y1[k], y2[k] = sentinel, sentinel
				}
				l.Apply(y1, x)
				dot := l.ApplyAndMaskedDot(y2, x)
				if math.Float64bits(dot) != math.Float64bits(wantDot) {
					t.Fatalf("h=%d %dx%d: fused dot %v, want %v", h, nxi, nyi, dot, wantDot)
				}
				for k := range want {
					if math.Float64bits(y1[k]) != math.Float64bits(want[k]) ||
						math.Float64bits(y2[k]) != math.Float64bits(want[k]) {
						t.Fatalf("h=%d %dx%d: cell (%d,%d): Apply %v, ApplyAndMaskedDot %v, want %v",
							h, nxi, nyi, k%nx, k/nx, y1[k], y2[k], want[k])
					}
				}
			}
		}
	}
}

func TestApplyKernelsAllocFree(t *testing.T) {
	l, x := poisonedLocal(rand.New(rand.NewSource(1)), 12, 13, 2)
	y := make([]float64, len(x))
	var sink float64
	if a := testing.AllocsPerRun(100, func() { l.Apply(y, x) }); a != 0 {
		t.Errorf("Apply allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink += l.ApplyAndMaskedDot(y, x) }); a != 0 {
		t.Errorf("ApplyAndMaskedDot allocates %v per call", a)
	}
	_ = sink
}
