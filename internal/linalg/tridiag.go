package linalg

import (
	"fmt"
	"math"
)

// SymTridiag is a symmetric tridiagonal matrix with diagonal Alpha (len n)
// and off-diagonal Beta (len n−1). It is the shape produced by the Lanczos
// process.
type SymTridiag struct {
	Alpha []float64
	Beta  []float64
}

// NewSymTridiag validates lengths and wraps the slices (no copy).
func NewSymTridiag(alpha, beta []float64) (*SymTridiag, error) {
	if len(alpha) == 0 {
		return nil, fmt.Errorf("linalg: tridiagonal matrix needs at least one diagonal entry")
	}
	if len(beta) != len(alpha)-1 {
		return nil, fmt.Errorf("linalg: tridiagonal off-diagonal length %d, want %d", len(beta), len(alpha)-1)
	}
	return &SymTridiag{Alpha: alpha, Beta: beta}, nil
}

// N returns the dimension.
func (t *SymTridiag) N() int { return len(t.Alpha) }

// sturmCount returns the number of eigenvalues of t that are strictly less
// than x, using the classic Sturm-sequence recurrence on the shifted LDLᵀ
// pivots.
func (t *SymTridiag) sturmCount(x float64) int {
	count := 0
	d := 1.0
	n := t.N()
	for i := 0; i < n; i++ {
		var off float64
		if i > 0 {
			off = t.Beta[i-1]
		}
		var prev float64
		if d != 0 {
			prev = off * off / d
		} else {
			// Standard guard: treat an exactly-zero pivot as a tiny one.
			prev = math.Abs(off) / 1e-308
		}
		d = t.Alpha[i] - x - prev
		if d < 0 {
			count++
		}
	}
	return count
}

// GershgorinBounds returns an interval [lo, hi] guaranteed to contain every
// eigenvalue of t.
func (t *SymTridiag) GershgorinBounds() (lo, hi float64) {
	n := t.N()
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(t.Beta[i-1])
		}
		if i < n-1 {
			r += math.Abs(t.Beta[i])
		}
		if v := t.Alpha[i] - r; v < lo {
			lo = v
		}
		if v := t.Alpha[i] + r; v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Eigenvalue returns the k-th smallest eigenvalue (k in [0, n)) of t to
// absolute tolerance tol via Sturm bisection.
func (t *SymTridiag) Eigenvalue(k int, tol float64) float64 {
	n := t.N()
	if k < 0 || k >= n {
		panic(fmt.Sprintf("linalg: eigenvalue index %d out of range [0,%d)", k, n))
	}
	lo, hi := t.GershgorinBounds()
	if tol <= 0 {
		tol = 1e-12 * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
	}
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		if t.sturmCount(mid) > k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// ExtremeEigenvalues returns the smallest and largest eigenvalues of t.
func (t *SymTridiag) ExtremeEigenvalues(tol float64) (smallest, largest float64) {
	return t.Eigenvalue(0, tol), t.Eigenvalue(t.N()-1, tol)
}

// EigvecLastComponent returns |s_n|, the magnitude of the last component of
// the unit eigenvector of t for eigenvalue lambda (as computed by
// Eigenvalue). t must be unreduced (no zero Beta), as a Lanczos tridiagonal
// is; Lanczos bounds a Ritz pair's residual by β_{n+1}·|s_n|.
//
// It solves (t − λI)z = γ_r·e_r by a twisted factorization (Dhillon and
// Parlett's MRRR eigenvector step): the top-down LDLᵀ pivots d⁺ of t − λI
// (the sturmCount recurrence) and the bottom-up pivots d⁻ meet at the twist
// index r where |γ_r| = |d⁺_r + d⁻_r − (α_r − λ)| is least, and with z_r = 1
// each side is one back substitution. The one-sided recurrence (r = n) is
// exact for an extreme λ in exact arithmetic but not with a bisected one:
// once a Ritz value has converged past √ε, λ's error exceeds its distance to
// the spectrum of t's leading block and the pivots lose their sign. On a
// Lanczos T_k whose θ_max had residual 1e-14, that recurrence read 0.17.
func (t *SymTridiag) EigvecLastComponent(lambda float64) float64 {
	n := t.N()
	dp, dm := make([]float64, n), make([]float64, n)
	for i := range dp {
		dp[i] = t.Alpha[i] - lambda
		if i > 0 {
			dp[i] -= t.Beta[i-1] * t.Beta[i-1] / dp[i-1]
		}
		dp[i] = nonzeroPivot(dp[i])
	}
	for i := n - 1; i >= 0; i-- {
		dm[i] = t.Alpha[i] - lambda
		if i < n-1 {
			dm[i] -= t.Beta[i] * t.Beta[i] / dm[i+1]
		}
		dm[i] = nonzeroPivot(dm[i])
	}
	gamma := func(i int) float64 { return math.Abs(dp[i] + dm[i] - (t.Alpha[i] - lambda)) }
	r := 0
	for i := range dp {
		if gamma(i) < gamma(r) {
			r = i
		}
	}
	z, ss := 1.0, 1.0
	for i := r - 1; i >= 0; i-- {
		z *= -t.Beta[i] / dp[i]
		ss += z * z
	}
	z = 1 // z_r again; the sweep below ends on z_n
	for i := r + 1; i < n; i++ {
		z *= -t.Beta[i-1] / dm[i]
		ss += z * z
	}
	return math.Abs(z) / math.Sqrt(ss)
}

// nonzeroPivot treats an exactly-zero LDLᵀ pivot as a tiny one, the guard
// sturmCount uses.
func nonzeroPivot(d float64) float64 {
	if d == 0 {
		return 1e-300
	}
	return d
}
