package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestSStepMatchesChronGear is the convergence-equivalence contract: for
// every preconditioner the s-step solver must reach the same tolerance as
// ChronGear and agree with its solution to solver accuracy. Subtests are
// named by the block size they run at.
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
		t.Run(fmt.Sprintf("%v-s%d", pc, SStepBlock), func(t *testing.T) {
			s := f.session(t, Options{Precond: pc, Tol: 1e-12})
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

// TestSStepReductionBound asserts the solver's whole point: it converges to
// POP's 1e-13 with both production preconditioners, and a converged solve
// performs at most ceil(iters/s)+1 global reductions — counted from the
// communicator's own per-rank reduction counters, not inferred. Its last
// row asks for 1e-17, below what EVP attains (it stalls near 1e-16) on the
// interval the solve estimates for itself (a nil Lanczos start): the solve
// runs on past the first stall, which the test finds by replaying the drift
// watch on the residual history, and then stops well short of MaxIters,
// still inside the bound (a replacement costs no reduction). The row holds
// with the replacement disabled too — the stall count restarts either way —
// so TestSStepReplacementRescuesDrift is what pins the replacement itself.
func TestSStepReductionBound(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	const sv = SStepBlock
	for _, c := range []struct {
		pc    PrecondType
		tol   float64
		start []float64 // the Lanczos start vector
	}{
		{PrecondDiagonal, 1e-13, f.b},
		{PrecondEVP, 1e-13, f.b},
		{PrecondEVP, 1e-17, nil},
	} {
		pc := c.pc
		s := f.session(t, Options{Precond: pc, Tol: c.tol})
		// Pre-estimate the spectrum so its own reductions (charged to
		// EigenStats, a separate Run) cannot be confused with the solve's.
		if _, _, _, err := s.EstimateEigenvalues(c.start, 0); err != nil {
			t.Fatal(err)
		}
		res, _, err := s.Solve(MethodSStep, f.b, x0)
		if c.tol < 1e-13 { // below the attainable floor
			if !errors.Is(err, ErrNotConverged) {
				t.Fatalf("%v tol=%g: got %v, want ErrNotConverged", pc, c.tol, err)
			}
			// A replacement restarts the stall count, so the solve must run
			// at least driftPatience iterations past the first stall, and
			// then stop on the second.
			first := firstDriftStall(res.Trace.Residuals)
			if res.Converged || first == 0 || res.Iterations < first+driftPatience || res.Iterations >= s.Opts.MaxIters/2 {
				t.Fatalf("%v tol=%g: converged=%v after %d iterations, first stall at %d; want one replacement, then a stop well short of %d",
					pc, c.tol, res.Converged, res.Iterations, first, s.Opts.MaxIters)
			}
		} else if err != nil || !res.Converged || res.RelResidual > c.tol {
			t.Fatalf("%v did not converge to %g (rel res %g after %d iterations): %v",
				pc, c.tol, res.RelResidual, res.Iterations, err)
		}
		nrank := int64(len(res.Stats.PerRank))
		if res.Stats.Sum.Reductions%nrank != 0 {
			t.Fatalf("%v: reduction total %d not divisible by %d ranks",
				pc, res.Stats.Sum.Reductions, nrank)
		}
		perRank := res.Stats.Sum.Reductions / nrank
		bound := int64((res.Iterations+sv-1)/sv) + 1
		if perRank > bound {
			t.Fatalf("%v: %d reductions per rank for %d iterations, bound ceil(%d/%d)+1 = %d",
				pc, perRank, res.Iterations, res.Iterations, sv, bound)
		}
		// Sanity: ChronGear at the same tolerance pays ~1 reduction per
		// iteration, so the s-step count must undercut it.
		if perRank >= int64(res.Iterations) {
			t.Fatalf("%v: %d reductions did not undercut the %d iterations",
				pc, perRank, res.Iterations)
		}
	}
}

// TestSStepReplacementRescuesDrift pins what the drift watch's residual
// replacement buys. On the land-block mask at ten times the fixture's step
// (a harder system), with the diagonal preconditioner, the recursive
// residual stalls above POP's 1e-13; one replacement restarts the
// recurrence from b − A·x and the solve converges in 212 iterations, its
// true residual under Tol. With the watch answering that stall with
// proceed instead of a replacement, the solve stops unconverged after 208
// iterations at 1.7e-10.
func TestSStepReplacementRescuesDrift(t *testing.T) {
	var geom referenceGeometry
	for _, g := range referenceGeometries(t) {
		if g.name == "land-block" {
			geom = g
		}
	}
	f := newFixture(t, geom.g, geom.bx, geom.by, 200000)
	s := f.session(t, Options{Precond: PrecondDiagonal, Tol: 1e-13})
	res, x, err := s.Solve(MethodSStep, f.b, make([]float64, f.g.N()))
	if err != nil || !res.Converged {
		t.Fatalf("converged=%v after %d iterations (rel res %g): %v", res.Converged, res.Iterations, res.RelResidual, err)
	}
	if first := firstDriftStall(res.Trace.Residuals); first == 0 {
		t.Fatal("the residual never stalled: the solve no longer needs a replacement")
	}
	if rel := trueRelResidual(f, x); rel > 1e-13 {
		t.Fatalf("true relative residual %g above Tol", rel)
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
		s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-12})
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
	s := f.session(t, Options{Precond: PrecondDiagonal, Tol: 1e-12})
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

// TestSStepCancellation: cancellation rides the block reduction, so a
// pre-cancelled context stops the solve at its first block with the
// context's error.
func TestSStepCancellation(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal})
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
