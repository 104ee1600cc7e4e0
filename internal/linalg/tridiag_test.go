package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTridiagValidation(t *testing.T) {
	if _, err := NewSymTridiag(nil, nil); err == nil {
		t.Fatal("expected error for empty diagonal")
	}
	if _, err := NewSymTridiag([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched off-diagonal length")
	}
	if _, err := NewSymTridiag([]float64{1, 2}, []float64{0.5}); err != nil {
		t.Fatalf("valid tridiag rejected: %v", err)
	}
}

// Eigenvalues of the 1-D Laplacian tridiag(−1, 2, −1) of size n are
// 2−2·cos(kπ/(n+1)), k = 1..n.
func TestTridiagLaplacianEigenvalues(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 73} {
		alpha := make([]float64, n)
		beta := make([]float64, n-1)
		for i := range alpha {
			alpha[i] = 2
		}
		for i := range beta {
			beta[i] = -1
		}
		tri, err := NewSymTridiag(alpha, beta)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, n - 1} {
			want := 2 - 2*math.Cos(float64(k+1)*math.Pi/float64(n+1))
			got := tri.Eigenvalue(k, 1e-12)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d k=%d: eigenvalue %v, want %v", n, k, got, want)
			}
		}
		lo, hi := tri.ExtremeEigenvalues(1e-12)
		if lo > hi {
			t.Fatalf("n=%d: extreme eigenvalues out of order: %v > %v", n, lo, hi)
		}
	}
}

// The unit eigenvectors of tridiag(−1, 2, −1) are
// v_i = sin(ijπ/(n+1))·√(2/(n+1)), so the last component's magnitude is
// |sin(njπ/(n+1))|·√(2/(n+1)). Every second one is antisymmetric.
func TestTridiagEigvecLastComponent(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 73, 200} {
		tri := laplacian1D(n)
		for j := 1; j <= n; j++ {
			want := math.Abs(math.Sin(float64(n*j)*math.Pi/float64(n+1))) * math.Sqrt(2/float64(n+1))
			got := tri.EigvecLastComponent(tri.Eigenvalue(j-1, 0))
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d j=%d: |s_n| = %v, want %v", n, j, got, want)
			}
		}
	}
}

// A converged Ritz value: cutting tridiag(−1, 2, −1) to β = 1e-10 before the
// last row leaves the leading block's λ_max = 2 + 2cos(π/n) an eigenvalue to
// far below the bisection tolerance, with |s_n| ≈ β·|v_{n−1}|/(λ_max − 2) to
// first order (v the leading block's unit eigenvector). A one-sided pivot
// recurrence on the bisected λ reads 0.05 here.
func TestTridiagEigvecLastComponentConverged(t *testing.T) {
	const n, cut = 20, 1e-10
	tri := laplacian1D(n)
	tri.Beta[n-2] = cut
	lam := 2 + 2*math.Cos(math.Pi/n)
	want := cut * math.Abs(math.Sin(float64((n-1)*(n-1))*math.Pi/n)) * math.Sqrt(2.0/n) / (lam - 2)
	got := tri.EigvecLastComponent(tri.Eigenvalue(n-1, 0))
	if math.Abs(got/want-1) > 1e-3 {
		t.Fatalf("|s_n| = %g, want %g", got, want)
	}
}

func laplacian1D(n int) *SymTridiag {
	alpha := make([]float64, n)
	beta := make([]float64, n-1)
	for i := range alpha {
		alpha[i] = 2
	}
	for i := range beta {
		beta[i] = -1
	}
	return &SymTridiag{Alpha: alpha, Beta: beta}
}

func TestTridiagDiagonalMatrix(t *testing.T) {
	alpha := []float64{3, -1, 7, 2}
	tri, err := NewSymTridiag(alpha, make([]float64, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Sorted eigenvalues are the sorted diagonal.
	want := []float64{-1, 2, 3, 7}
	for k, w := range want {
		if got := tri.Eigenvalue(k, 1e-12); math.Abs(got-w) > 1e-9 {
			t.Fatalf("k=%d: got %v want %v", k, got, w)
		}
	}
}

func TestGershgorinContainsEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	alpha := make([]float64, n)
	beta := make([]float64, n-1)
	for i := range alpha {
		alpha[i] = rng.NormFloat64() * 3
	}
	for i := range beta {
		beta[i] = rng.NormFloat64()
	}
	tri, _ := NewSymTridiag(alpha, beta)
	lo, hi := tri.GershgorinBounds()
	small, large := tri.ExtremeEigenvalues(1e-10)
	if small < lo-1e-9 || large > hi+1e-9 {
		t.Fatalf("eigenvalues [%v,%v] escape Gershgorin interval [%v,%v]", small, large, lo, hi)
	}
}

// Property: eigenvalue ordering is monotone in k, and the Sturm count at
// (λ_k + λ_{k+1})/2 equals k+1.
func TestQuickTridiagOrdering(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		alpha := make([]float64, n)
		beta := make([]float64, n-1)
		for i := range alpha {
			alpha[i] = rng.NormFloat64() * 2
		}
		for i := range beta {
			beta[i] = rng.NormFloat64()
		}
		tri, err := NewSymTridiag(alpha, beta)
		if err != nil {
			return false
		}
		prev := math.Inf(-1)
		for k := 0; k < n; k++ {
			ev := tri.Eigenvalue(k, 1e-11)
			if ev < prev-1e-8 {
				return false
			}
			prev = ev
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 got %v", Norm2(x))
	}
	if Norm2([]float64{0, 0}) != 0 {
		t.Fatal("Norm2 of zero vector should be 0")
	}
	if Dot(x, []float64{1, 2}) != 11 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy got %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale got %v", y)
	}
	if MaxAbsDiff([]float64{1, 2}, []float64{1.5, 2}) != 0.5 {
		t.Fatal("MaxAbsDiff wrong")
	}
}

func TestNorm2NoOverflow(t *testing.T) {
	big := 1e308
	if got := Norm2([]float64{big, big}); math.IsInf(got, 0) {
		t.Fatal("Norm2 overflowed")
	}
}
