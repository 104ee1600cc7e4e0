package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stencil"
)

// axpy is the retired single-vector update dst += a·x, kept as the naive
// indexed reference the fused kernels are held to.
func axpy(loc *stencil.Local, dst, x []float64, a float64) {
	for j := loc.H; j < loc.NyP-loc.H; j++ {
		for i := loc.H; i < loc.NxP-loc.H; i++ {
			dst[j*loc.NxP+i] += a * x[j*loc.NxP+i]
		}
	}
}

// randomLocal builds a Local with random coefficients and mask; cells
// outside halo ring 1 of the coefficient arrays and of every returned field
// hold NaN, so a kernel reading beyond the stencil's reach shows it.
func randomLocal(rng *rand.Rand, nxi, nyi, h, nfields int) (*stencil.Local, [][]float64) {
	nxp, nyp := nxi+2*h, nyi+2*h
	l := &stencil.Local{NxP: nxp, NyP: nyp, H: h, Mask: make([]bool, nxp*nyp)}
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
	fields := make([][]float64, nfields)
	for i := range fields {
		fields[i] = fill()
	}
	return l, fields
}

func sameBits(a, b []float64) int {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	return -1
}

// residual against the naive indexed nine-term sum, bit for bit, over every
// interior shape up to 20×20 and both halo widths; halo cells of r stay
// untouched and nothing outside ring 1 is read.
func TestResidualMatchesNaiveNinePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for h := 1; h <= 2; h++ {
		for nyi := 1; nyi <= 20; nyi++ {
			for nxi := 1; nxi <= 20; nxi++ {
				l, f := randomLocal(rng, nxi, nyi, h, 3)
				x, b, r := f[0], f[1], f[2]
				want := append([]float64(nil), r...)
				nx := l.NxP
				for j := h; j < l.NyP-h; j++ {
					for i := h; i < nx-h; i++ {
						k := j*nx + i
						want[k] = b[k] - (l.AC[k]*x[k] +
							l.AN[k]*x[k+nx] + l.AN[k-nx]*x[k-nx] +
							l.AE[k]*x[k+1] + l.AE[k-1]*x[k-1] +
							l.ANE[k]*x[k+nx+1] + l.ANE[k-nx]*x[k-nx+1] +
							l.ANE[k-1]*x[k+nx-1] + l.ANE[k-nx-1]*x[k-nx-1])
					}
				}
				residual(l, r, b, x)
				if k := sameBits(r, want); k >= 0 {
					t.Fatalf("h=%d %dx%d: cell (%d,%d): %v, want %v", h, nxi, nyi, k%nx, k/nx, r[k], want[k])
				}
			}
		}
	}
}

// fusedUpdate and axpy2 replaced separate xpay/axpy sweeps; each fused pass
// must produce the bits the sweeps did, on the interior only.
func TestFusedUpdateMatchesXpayThenAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const beta, a1, a2 = 0.37, 0.81, -0.81
	for _, shape := range [][3]int{{12, 13, 2}, {1, 1, 1}, {7, 3, 2}, {46, 55, 2}} {
		l, f := randomLocal(rng, shape[0], shape[1], shape[2], 6)
		want := make([][]float64, len(f))
		for i := range f {
			want[i] = append([]float64(nil), f[i]...)
		}
		xpay(l, want[0], want[1], beta)
		xpay(l, want[3], want[4], beta)
		axpy(l, want[2], want[0], a1)
		axpy(l, want[5], want[3], a2)
		fusedUpdate(l, f[0], f[1], f[2], f[3], f[4], f[5], beta, a1, a2)
		for i := range f {
			if k := sameBits(f[i], want[i]); k >= 0 {
				t.Fatalf("fusedUpdate %v: field %d entry %d: %v, want %v", shape, i, k, f[i][k], want[i][k])
			}
		}
		axpy(l, want[0], want[1], a1)
		axpy(l, want[2], want[3], a2)
		axpy2(l, f[0], f[1], a1, f[2], f[3], a2)
		for i := range f {
			if k := sameBits(f[i], want[i]); k >= 0 {
				t.Fatalf("axpy2 %v: field %d entry %d: %v, want %v", shape, i, k, f[i][k], want[i][k])
			}
		}
	}
}

func TestDiagPrecondMatchesIndexedDivide(t *testing.T) {
	l, f := randomLocal(rand.New(rand.NewSource(9)), 12, 13, 2, 2)
	p := newDiagPrecond(l)
	want := append([]float64(nil), f[0]...)
	for j := l.H; j < l.NyP-l.H; j++ {
		for i := l.H; i < l.NxP-l.H; i++ {
			k := j*l.NxP + i
			want[k] = f[1][k] * (1 / l.AC[k])
		}
	}
	p.Apply(f[0], f[1])
	if k := sameBits(f[0], want); k >= 0 {
		t.Fatalf("entry %d: %v, want %v", k, f[0][k], want[k])
	}
}

func TestBlockKernelsAllocFree(t *testing.T) {
	l, f := randomLocal(rand.New(rand.NewSource(1)), 12, 13, 2, 6)
	p := newDiagPrecond(l)
	for name, fn := range map[string]func(){
		"residual":    func() { residual(l, f[0], f[1], f[2]) },
		"fusedUpdate": func() { fusedUpdate(l, f[0], f[1], f[2], f[3], f[4], f[5], 0.5, 0.25, -0.25) },
		"axpy2":       func() { axpy2(l, f[0], f[1], 0.5, f[2], f[3], -0.5) },
		"diagPrecond": func() { p.Apply(f[0], f[1]) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s allocates %v per call", name, a)
		}
	}
}

// A NaN in the reduced check residual can never clear: every method must
// leave at that check — every rank sees the same reduced value — with a
// typed error instead of iterating to MaxIters. The exit is the driver's,
// so no method can be without it.
func TestNaNResidualFailsFastAtFirstCheck(t *testing.T) {
	f := testFixture(t)
	b := append([]float64(nil), f.b...)
	for k, ocean := range f.g.Mask {
		if ocean {
			b[k] = math.NaN()
			break
		}
	}
	for _, m := range []Method{MethodChronGear, MethodPCG, MethodPCSI, MethodSStep} {
		s := f.session(t, Options{Precond: PrecondDiagonal})
		if _, _, _, err := s.EstimateEigenvalues(f.b, 0); err != nil { // not from the NaN vector
			t.Fatal(err)
		}
		res, _, err := s.SolveContext(context.Background(), m, b, nil)
		var nc *NotConvergedError
		if !errors.As(err, &nc) {
			t.Fatalf("%v: error %v, want *NotConvergedError", m, err)
		}
		want := s.Opts.CheckEvery
		if m == MethodSStep {
			want = 0 // the first block's entering residual
		}
		if res.Converged || res.Iterations != want || len(res.Trace.Residuals) != 1 || !math.IsNaN(nc.RelResidual) {
			t.Fatalf("%v: converged=%v after %d iterations and %d checks (want %d and 1), residual %v",
				m, res.Converged, res.Iterations, len(res.Trace.Residuals), want, nc.RelResidual)
		}
	}
}
