package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
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
// bit for bit — for every solverRows pair, fault-free and under the halo
// faults that plant NaN (corrupt) or leave halos stale (drop) mid-solve,
// recovered from as TestHaloCorruptRecovery's are, and once with the
// recovery off, so the solve ends on the NaN it was dealt. A kernel that
// still sweeps whole rows, or a preconditioner that copies a non-finite
// block solve onto land, fails it: land a NaN reaches is not rewritten.
func TestLandEntriesStayZero(t *testing.T) {
	corrupt := faults.Plan{Seed: 5, HaloCorruptProb: 1e-3}
	configs := []struct {
		name   string
		class  faults.Class
		plan   faults.Plan
		maxRec int
	}{
		{name: "clean", maxRec: 200},
		{"halo-corrupt", faults.HaloCorrupt, corrupt, 200},
		{"halo-corrupt-unrecovered", faults.HaloCorrupt, corrupt, -1},
		{"halo-drop", faults.HaloDrop, faults.Plan{Seed: 3, HaloDropProb: 1e-3}, 200},
	}
	for _, row := range solverRows() {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%v-%v/%s", row.m, row.pc, cfg.name), func(t *testing.T) {
				f := testFixture(t)
				s := f.session(t, Options{Precond: row.pc, Tol: 1e-10, MaxIters: 4000, MaxRecoveries: cfg.maxRec})
				// The interval is estimated fault-free (and fills the
				// session's Lanczos fields, which are held too).
				if _, _, _, err := s.EstimateEigenvalues(f.b, 0); err != nil {
					t.Fatal(err)
				}
				inj := faults.New(cfg.plan)
				f.w.Faults = inj
				if _, _, err := s.SolveResilient(context.Background(), row.m, f.b, nil); err != nil && cfg.name == "clean" {
					t.Fatal(err)
				}
				if cfg.plan.Active() && inj.InjectedCount(cfg.class) == 0 {
					t.Fatalf("no %v faults injected: the row exercised nothing", cfg.class)
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
// session makes: the same solution, iteration count, residual history and
// recovery record. The resilient row rolls back mid-solve (rank crashes
// at checks every two iterations) on both sessions. The fresh session's
// first solve is a zero right-hand side, one iteration-free run that keeps
// the two worlds' fault schedules in step.
func TestChronGearFusedNoStaleState(t *testing.T) {
	for _, row := range []struct {
		name       string
		plan       faults.Plan
		checkEvery int
	}{
		{name: "plain"},
		{"resilient", faults.Plan{Seed: 9, CrashProb: 0.1}, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := Options{Precond: PrecondDiagonal, MaxIters: 7, CheckEvery: row.checkEvery}
			solve := func(first []float64) (Result, []float64) {
				f := testFixture(t)
				if row.plan.Active() {
					f.w.Faults = faults.New(row.plan)
				}
				s := f.session(t, opts)
				if first == nil {
					first = make([]float64, len(f.b))
				}
				// Both solves stop on MaxIters, except the zero right-hand side.
				if _, _, err := s.SolveResilient(context.Background(), MethodChronGear, first, nil); err != nil && !errors.Is(err, ErrNotConverged) {
					t.Fatal(err)
				}
				res, x, err := s.SolveResilient(context.Background(), MethodChronGear, f.b, nil)
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
			if row.plan.Active() && got.Recovery.Restores == 0 {
				t.Fatal("no rollback in the resilient row's solve")
			}
			if got.Iterations != want.Iterations || got.Recovery != want.Recovery ||
				len(got.Trace.Residuals) != len(want.Trace.Residuals) {
				t.Fatalf("after a capped solve: %d iterations, recovery %+v, %d checks; a fresh session: %d, %+v, %d",
					got.Iterations, got.Recovery, len(got.Trace.Residuals),
					want.Iterations, want.Recovery, len(want.Trace.Residuals))
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
}
