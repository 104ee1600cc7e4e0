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
// indexed reference the fused kernels are held to: ocean points only, as
// every interior sweep.
func axpy(loc *stencil.Local, dst, x []float64, a float64) {
	for j := loc.H; j < loc.NyP-loc.H; j++ {
		for i := loc.H; i < loc.NxP-loc.H; i++ {
			if k := j*loc.NxP + i; loc.Mask[k] {
				dst[k] += a * x[k]
			}
		}
	}
}

// landSentinel marks the land and halo entries a kernel must leave alone.
const landSentinel = -12345.0

// seedSentinel writes landSentinel into every land and halo entry of fs.
func seedSentinel(l *stencil.Local, fs ...[]float64) {
	for _, f := range fs {
		for k := range f {
			i, j := k%l.NxP, k/l.NxP
			if !l.Mask[k] || i < l.H || i >= l.NxP-l.H || j < l.H || j >= l.NyP-l.H {
				f[k] = landSentinel
			}
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
	l.InitRuns()
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
// interior shape up to 20×20 and both halo widths, at ocean points; land
// and halo cells of r keep their sentinel and nothing outside ring 1 is
// read.
func TestResidualMatchesNaiveNinePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for h := 1; h <= 2; h++ {
		for nyi := 1; nyi <= 20; nyi++ {
			for nxi := 1; nxi <= 20; nxi++ {
				l, f := randomLocal(rng, nxi, nyi, h, 3)
				x, b, r := f[0], f[1], f[2]
				seedSentinel(l, r)
				want := append([]float64(nil), r...)
				nx := l.NxP
				for j := h; j < l.NyP-h; j++ {
					for i := h; i < nx-h; i++ {
						k := j*nx + i
						if !l.Mask[k] {
							continue
						}
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

// fusedUpdate and axpy2 replaced separate xpay/axpy sweeps, and
// fusedUpdatePrecond fuses fusedUpdate with the pointwise preconditioner
// and the two masked dots behind it; each fused pass must produce the bits
// the sweeps did, at ocean points only: every field's land and halo cells
// keep their sentinel.
func TestFusedUpdateMatchesXpayThenAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const beta, a1, a2 = 0.37, 0.81, -0.81
	for _, shape := range [][3]int{{12, 13, 2}, {1, 1, 1}, {7, 3, 2}, {46, 55, 2}} {
		l, f := randomLocal(rng, shape[0], shape[1], shape[2], 6)
		seedSentinel(l, f...)
		want := make([][]float64, len(f))
		for i := range f {
			want[i] = append([]float64(nil), f[i]...)
		}
		// xpay itself against the naive indexed update.
		for j := l.H; j < l.NyP-l.H; j++ {
			for i := l.H; i < l.NxP-l.H; i++ {
				if k := j*l.NxP + i; l.Mask[k] {
					want[0][k] = want[1][k] + beta*want[0][k]
				}
			}
		}
		xpay(l, f[0], f[1], beta)
		if k := sameBits(f[0], want[0]); k >= 0 {
			t.Fatalf("xpay %v: entry %d: %v, want %v", shape, k, f[0][k], want[0][k])
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
		// ChronGear's pass: s, r', x, p, z, r = f[0..5].
		p := newDiagPrecond(l)
		fusedUpdate(l, want[0], want[1], want[2], want[3], want[4], want[5], beta, a1, -a1)
		p.Apply(want[1], want[5])
		wantRho, wantRn2 := l.MaskedDotInterior(want[5], want[1]), l.MaskedDotInterior(want[5], want[5])
		rho, rn2 := fusedUpdatePrecond(l, f[0], f[1], f[2], f[3], f[4], f[5], p.inv, beta, a1)
		for i := range f {
			if k := sameBits(f[i], want[i]); k >= 0 {
				t.Fatalf("fusedUpdatePrecond %v: field %d entry %d: %v, want %v", shape, i, k, f[i][k], want[i][k])
			}
		}
		if sameBits([]float64{rho, rn2}, []float64{wantRho, wantRn2}) >= 0 {
			t.Fatalf("fusedUpdatePrecond %v: ρ %v, ‖r‖² %v; want %v, %v", shape, rho, rn2, wantRho, wantRn2)
		}
	}
}

// The pointwise preconditioners against the indexed divide (diagonal) and
// the copy (identity) at ocean points; land and halo cells of dst keep
// their sentinel.
func TestDiagPrecondMatchesIndexedDivide(t *testing.T) {
	l, f := randomLocal(rand.New(rand.NewSource(9)), 12, 13, 2, 2)
	seedSentinel(l, f[0])
	for _, identity := range []bool{false, true} {
		p := newDiagPrecond(l)
		if identity {
			p = newIdentityPrecond(l)
		}
		want := append([]float64(nil), f[0]...)
		for j := l.H; j < l.NyP-l.H; j++ {
			for i := l.H; i < l.NxP-l.H; i++ {
				k := j*l.NxP + i
				switch {
				case !l.Mask[k]:
				case identity:
					want[k] = f[1][k]
				default:
					want[k] = f[1][k] * (1 / l.AC[k])
				}
			}
		}
		p.Apply(f[0], f[1])
		if k := sameBits(f[0], want); k >= 0 {
			t.Fatalf("identity=%v: entry %d: %v, want %v", identity, k, f[0][k], want[k])
		}
	}
}

func TestBlockKernelsAllocFree(t *testing.T) {
	l, f := randomLocal(rand.New(rand.NewSource(1)), 12, 13, 2, 6)
	p := newDiagPrecond(l)
	for name, fn := range map[string]func(){
		"residual":    func() { residual(l, f[0], f[1], f[2]) },
		"fusedUpdate": func() { fusedUpdate(l, f[0], f[1], f[2], f[3], f[4], f[5], 0.5, 0.25, -0.25) },
		"axpy2":       func() { axpy2(l, f[0], f[1], 0.5, f[2], f[3], -0.5) },
		"fusedUpdatePrecond": func() {
			fusedUpdatePrecond(l, f[0], f[1], f[2], f[3], f[4], f[5], p.inv, 0.5, 0.25)
		},
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
