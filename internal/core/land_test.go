package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// landFieldEntry returns the first land interior entry of any of s's session
// fields that is not +0, described, or "" when there is none.
func landFieldEntry(s *Session) string {
	for rid, rs := range s.perRank {
		if rs == nil {
			continue
		}
		for name, blocks := range rs.fields {
			for bi, f := range blocks {
				loc := rs.locs[bi]
				for j := loc.H; j < loc.NyP-loc.H; j++ {
					for i := loc.H; i < loc.NxP-loc.H; i++ {
						k := j*loc.NxP + i
						if !loc.Mask[k] && math.Float64bits(f[k]) != 0 {
							return fmt.Sprintf("rank %d field %q block %d land (%d,%d) = %v", rid, name, bi, i, j, f[k])
						}
					}
				}
			}
		}
	}
	return ""
}

// TestLandEntriesStayZero holds the land invariant the wet-run kernels rest
// on: after a solve, every land interior entry of every session field is +0,
// bit for bit — for every solverRows pair, on a clean right-hand side and on
// one with a NaN at an ocean point, which every ocean entry of the solve's
// fields takes on before the solve ends on it. A kernel that still sweeps
// whole rows, or a preconditioner that copies a non-finite block solve onto
// land, fails it: land a NaN reaches is not rewritten.
func TestLandEntriesStayZero(t *testing.T) {
	for _, row := range solverRows() {
		for _, nan := range []bool{false, true} {
			name := "clean"
			if nan {
				name = "nan-rhs"
			}
			t.Run(fmt.Sprintf("%v-%v/%s", row.m, row.pc, name), func(t *testing.T) {
				f := testFixture(t)
				s := f.session(t, Options{Precond: row.pc, Tol: 1e-10, MaxIters: 4000})
				// The interval is estimated on the clean right-hand side (and
				// fills the session's Lanczos fields, which are held too).
				if _, _, _, err := s.EstimateEigenvalues(f.b, 0); err != nil {
					t.Fatal(err)
				}
				b := f.b
				if nan {
					b = slices.Clone(f.b)
					b[slices.Index(f.g.Mask, true)] = math.NaN()
				}
				_, _, err := s.Solve(row.m, b, nil)
				if nan != (err != nil) {
					t.Fatalf("solve: %v", err)
				}
				if e := landFieldEntry(s); e != "" {
					t.Fatal(e)
				}
			})
		}
	}
}

// TestChronGearFusedNoStaleState: with a pointwise preconditioner
// ChronGear's advance computes the next step's r' and ρ ahead of its stage
// 0, so a solve stopped by MaxIters between the two leaves them behind. A
// second solve on that session must be bit for bit the solve a fresh
// session makes: the same solution, iteration count and residual history.
// The fresh session's first solve is a zero right-hand side, one
// iteration-free run, so both sessions solve twice.
func TestChronGearFusedNoStaleState(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		opts := Options{Precond: PrecondDiagonal, MaxIters: 7}
		solve := func(first []float64) (Result, []float64) {
			f := testFixture(t)
			s := f.session(t, opts)
			if first == nil {
				first = make([]float64, len(f.b))
			}
			// Both solves stop on MaxIters, except the zero right-hand side.
			if _, _, err := s.Solve(MethodChronGear, first, nil); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			res, x, err := s.Solve(MethodChronGear, f.b, nil)
			if !errors.Is(err, ErrNotConverged) {
				t.Fatalf("capped solve: got %v, want ErrNotConverged", err)
			}
			return res, append([]float64(nil), x...)
		}
		other := testFixture(t).b
		for k := range other {
			other[k] = -0.5 * other[k]
		}
		got, x := solve(other)
		want, wantX := solve(nil)
		if got.Iterations != opts.MaxIters || got.Converged {
			t.Fatalf("second solve: %d iterations, converged=%v; want %d, not converged",
				got.Iterations, got.Converged, opts.MaxIters)
		}
		if got.Iterations != want.Iterations || len(got.Trace.Residuals) != len(want.Trace.Residuals) ||
			math.Float64bits(got.RelResidual) != math.Float64bits(want.RelResidual) {
			t.Fatalf("after a capped solve: %d iterations, %d checks, rel %v; a fresh session: %d, %d, %v",
				got.Iterations, len(got.Trace.Residuals), got.RelResidual,
				want.Iterations, len(want.Trace.Residuals), want.RelResidual)
		}
		for i, rp := range want.Trace.Residuals {
			if math.Float64bits(got.Trace.Residuals[i].RelResidual) != math.Float64bits(rp.RelResidual) {
				t.Fatalf("residual check %d: %v, a fresh session %v", i, got.Trace.Residuals[i].RelResidual, rp.RelResidual)
			}
		}
		if k := sameBits(x, wantX); k >= 0 {
			t.Fatalf("solution entry %d: %v, a fresh session %v", k, x[k], wantX[k])
		}
	})
}
