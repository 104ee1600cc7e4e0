package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestSStepMatchesChronGear is the convergence-equivalence contract: for
// every preconditioner and every block size in the experiment sweep, the
// s-step solver must reach the same tolerance as ChronGear and agree with
// its solution to solver accuracy.
func TestSStepMatchesChronGear(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	for _, pc := range []PrecondType{PrecondIdentity, PrecondDiagonal, PrecondEVP, PrecondBlockLU} {
		sCG := f.session(t, Options{Precond: pc, Tol: 1e-12})
		rCG, xCG, err := sCG.Solve(MethodChronGear, f.b, x0)
		if err != nil {
			t.Fatalf("chrongear/%v: %v", pc, err)
		}
		if !rCG.Converged {
			t.Fatalf("chrongear/%v did not converge", pc)
		}
		ref := make([]float64, len(xCG))
		copy(ref, xCG)
		for _, sv := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v-s%d", pc, sv), func(t *testing.T) {
				s := f.session(t, Options{Precond: pc, Tol: 1e-12, SStep: sv})
				res, x, err := s.Solve(MethodSStep, f.b, x0)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("did not converge in %d iterations (rel res %g)",
						res.Iterations, res.RelResidual)
				}
				if res.RelResidual > 1e-12 {
					t.Fatalf("converged flag set but rel residual %g > tol", res.RelResidual)
				}
				if e := maxOceanErr(f.g, x, ref); e > 1e-8 {
					t.Fatalf("solution differs from ChronGear by %g", e)
				}
			})
		}
	}
}

// TestSStepReductionBound asserts the solver's whole point: every accepted
// block size converges to POP's 1e-13 with both production preconditioners,
// and a converged solve performs at most ceil(iters/s)+1 global reductions —
// counted from the communicator's own per-rank reduction counters, not
// inferred. Its last row asks for 1e-17, below what s = 4 with EVP attains
// (it stalls near 1e-16) on the interval the solve estimates for itself (a
// nil Lanczos start): the drift watch replaces the residual once — the
// solve runs on past the first stall, which the test finds by replaying the
// watch on the residual history — and when the replaced recurrence stalls
// again it stops the solve well short of MaxIters, still inside the bound
// (a replacement costs no reduction).
func TestSStepReductionBound(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	type bound struct {
		pc    PrecondType
		sv    int
		tol   float64
		start []float64 // the Lanczos start vector
	}
	var cases []bound
	for _, pc := range []PrecondType{PrecondDiagonal, PrecondEVP} {
		for _, sv := range []int{1, 2, 4, 8} {
			cases = append(cases, bound{pc, sv, 1e-13, f.b})
		}
	}
	cases = append(cases, bound{PrecondEVP, 4, 1e-17, nil})
	for _, c := range cases {
		pc, sv := c.pc, c.sv
		s := f.session(t, Options{Precond: pc, Tol: c.tol, SStep: sv})
		// Pre-estimate the spectrum so its own reductions (charged to
		// EigenStats, a separate Run) cannot be confused with the solve's.
		if _, _, _, err := s.EstimateEigenvalues(c.start, 0); err != nil {
			t.Fatal(err)
		}
		res, _, err := s.Solve(MethodSStep, f.b, x0)
		if err != nil {
			t.Fatal(err)
		}
		if c.tol < 1e-13 { // below the attainable floor
			// A replacement restarts the stall count, so the solve must run
			// at least driftPatience iterations past the first stall, and
			// then stop on the second.
			first := firstDriftStall(res.Trace.Residuals)
			if res.Converged || first == 0 || res.Iterations < first+driftPatience || res.Iterations >= s.Opts.MaxIters/2 {
				t.Fatalf("%v s=%d tol=%g: converged=%v after %d iterations, first stall at %d; want one replacement, then a stop well short of %d",
					pc, sv, c.tol, res.Converged, res.Iterations, first, s.Opts.MaxIters)
			}
		} else if !res.Converged || res.RelResidual > c.tol {
			t.Fatalf("%v s=%d did not converge to %g (rel res %g after %d iterations)",
				pc, sv, c.tol, res.RelResidual, res.Iterations)
		}
		nrank := int64(len(res.Stats.PerRank))
		if res.Stats.Sum.Reductions%nrank != 0 {
			t.Fatalf("%v s=%d: reduction total %d not divisible by %d ranks",
				pc, sv, res.Stats.Sum.Reductions, nrank)
		}
		perRank := res.Stats.Sum.Reductions / nrank
		bound := int64((res.Iterations+sv-1)/sv) + 1
		if perRank > bound {
			t.Fatalf("%v s=%d: %d reductions per rank for %d iterations, bound ceil(%d/%d)+1 = %d",
				pc, sv, perRank, res.Iterations, res.Iterations, sv, bound)
		}
		// Sanity: ChronGear at the same tolerance pays ~1 reduction per
		// iteration, so the s-step count must undercut it for s > 1.
		if sv > 1 && perRank >= int64(res.Iterations) {
			t.Fatalf("%v s=%d: %d reductions did not undercut the %d iterations",
				pc, sv, perRank, res.Iterations)
		}
	}
}

// firstDriftStall replays the drift watch's first verdict on a residual
// history: the iteration of the check at which the residual, under
// driftFloor, has gone driftPatience iterations without a 1% improvement,
// or 0 if it never does.
func firstDriftStall(hist []ResidualPoint) int {
	best, stall, prev := math.Inf(1), 0, 0
	for _, p := range hist {
		span := p.Iter - prev
		prev = p.Iter
		switch {
		case p.RelResidual < 0.99*best:
			best, stall = p.RelResidual, 0
		case p.RelResidual <= driftFloor:
			if stall += span; stall >= driftPatience {
				return p.Iter
			}
		}
	}
	return 0
}

// TestSStepBitwiseAcrossThreads asserts the worker-shard determinism
// contract: the same solve on 1 and 4 threads (ranks sharded onto fewer OS
// workers) produces bitwise-identical solutions and residual histories.
func TestSStepBitwiseAcrossThreads(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	run := func(threads int) ([]float64, []uint64) {
		f.w.SetThreads(threads)
		defer f.w.SetThreads(0)
		s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-12, SStep: 4})
		res, x, err := s.Solve(MethodSStep, f.b, x0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("did not converge")
		}
		xc := make([]float64, len(x))
		copy(xc, x)
		hist := make([]uint64, 0, len(res.Trace.Residuals))
		for _, rp := range res.Trace.Residuals {
			hist = append(hist, math.Float64bits(rp.RelResidual))
		}
		return xc, hist
	}
	x1, h1 := run(1)
	x4, h4 := run(4)
	if len(h1) != len(h4) {
		t.Fatalf("residual history lengths differ: %d vs %d", len(h1), len(h4))
	}
	for i := range h1 {
		if h1[i] != h4[i] {
			t.Fatalf("residual %d differs bitwise: %016x vs %016x", i, h1[i], h4[i])
		}
	}
	for k := range x1 {
		if x1[k] != x4[k] {
			t.Fatalf("solution differs bitwise at %d across thread counts", k)
		}
	}
}

// TestSStepRepeatDeterministic asserts warm-arena repeatability: reusing a
// session's field arenas and pooled reduction buffers must not perturb a
// bit, same as the per-iteration solvers.
func TestSStepRepeatDeterministic(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	s := f.session(t, Options{Precond: PrecondDiagonal, Tol: 1e-12, SStep: 4})
	_, xa, err := s.Solve(MethodSStep, f.b, x0)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, len(xa))
	copy(ref, xa)
	_, xb, err := s.Solve(MethodSStep, f.b, x0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref {
		if ref[k] != xb[k] {
			t.Fatalf("repeat solve differs bitwise at %d", k)
		}
	}
}

// TestSStepOptionValidation covers the new public surface's failure mode:
// out-of-range block sizes, including s = 16, which is refused rather than
// left to stall short of the tolerance.
func TestSStepOptionValidation(t *testing.T) {
	f := testFixture(t)
	for _, sv := range []int{MaxSStep + 1, 16, -1} {
		if _, err := NewSession(f.g, f.op, f.d, f.w, Options{SStep: sv}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("SStep=%d: got %v, want ErrBadSpec", sv, err)
		}
	}
}

// TestSStepCancellation: cancellation rides the block reduction, so a
// pre-cancelled context stops the solve at its first block with the
// context's error.
func TestSStepCancellation(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal, SStep: 4})
	if _, _, _, err := s.EstimateEigenvalues(f.b, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.SolveContext(ctx, MethodSStep, f.b, make([]float64, f.g.N()))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSStepMethodPlumbing covers the enum round trip.
func TestSStepMethodPlumbing(t *testing.T) {
	m, err := ParseMethod("sstep")
	if err != nil || m != MethodSStep {
		t.Fatalf("ParseMethod(sstep) = %v, %v", m, err)
	}
	if got := MethodSStep.String(); got != "sstep" {
		t.Fatalf("MethodSStep.String() = %q", got)
	}
	if !MethodSStep.Valid() {
		t.Fatal("MethodSStep not Valid()")
	}
}
