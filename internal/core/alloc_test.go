package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// minAllocs is the fewest allocations per call of f over five
// testing.AllocsPerRun(3) samples. A stray malloc of the runtime (seen at
// GOMAXPROCS=1 as one extra object in a sample, whatever the solver) only
// ever adds, while an allocation the solver makes shows in every sample.
func minAllocs(f func()) float64 {
	best := math.Inf(1)
	for range 5 {
		best = min(best, testing.AllocsPerRun(3, f))
	}
	return best
}

// allocsPerIteration runs fixed-length solves (Tol below machine precision
// so convergence never truncates them) of `short` and `long` iterations on a
// warm session. Differencing the two isolates the steady-state iteration
// body — halo exchange, matvec, preconditioner, reduction, convergence check
// — from per-solve costs (the run's workers, scatters, the Result/trace
// records), which the short solve's count gives. With threads listed, a
// measured call makes one solve per entry, setting the world's Threads to
// it first, and both counts are per solve.
func allocsPerIteration(t *testing.T, f *fixture, m Method, precond PrecondType, short, long int, threads ...int) (perIter, perSolve float64) {
	t.Helper()
	mk := func(iters int) *Session {
		s, err := NewSession(f.g, f.op, f.d, f.w, Options{
			Precond: precond, Tol: 1e-300, MaxIters: iters, CheckEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sShort, sLong := mk(short), mk(long)
	x0 := make([]float64, f.g.N())
	solves := max(len(threads), 1)
	run := func(s *Session) func() {
		return func() {
			for i := range solves {
				if len(threads) > 0 {
					f.w.SetThreads(threads[i])
				}
				if _, _, err := s.Solve(m, f.b, x0); !errors.Is(err, ErrNotConverged) {
					t.Fatalf("fixed-length solve: got %v, want ErrNotConverged", err)
				}
			}
		}
	}
	// Warm every lazily grown workspace (session fields, pooled comm
	// buffers, eigenvalue estimate for P-CSI) before measuring.
	run(sShort)()
	run(sLong)()

	a := minAllocs(run(sShort))
	b := minAllocs(run(sLong))
	return (b - a) / float64(solves*(long-short)), a / float64(solves)
}

// TestSteadyStateSolverAllocFree asserts the acceptance criterion of the
// zero-allocation refactor: once a session is warm, a solver iteration
// allocates nothing — for every row of the methods table under every
// preconditioner, on a multi-rank virtual run. And a warm solve's fixed
// allocations do not grow with the rank count: the fixture's ranks cost at
// most a few objects more than four ranks do (a rank is loop iterations of
// its shard, not a coroutine to start). A warm session whose runs move
// between worker counts — a default-threaded solve takes the processors
// other solves leave idle — keeps an executor, its halo plans and the shard
// drivers per count: alternating Threads 1 and 2 between solves allocates
// nothing per iteration and no more per solve than either count alone.
func TestSteadyStateSolverAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of ~1,600 warm solves: ~85 s under the race detector, which counts the same objects; verify.sh runs this at GOMAXPROCS=1 without it")
	}
	f := testFixture(t)
	few := newFixture(t, f.g, 32, 24, 20000)
	if f.d.NRanks <= 8 || few.d.NRanks != 4 {
		t.Fatalf("fixtures have %d and %d ranks, want more than 8 and 4", f.d.NRanks, few.d.NRanks)
	}
	for i := range methods {
		for _, pc := range precondSpellings {
			t.Run(fmt.Sprintf("%v-%v", Method(i), pc.value), func(t *testing.T) {
				per, solve := allocsPerIteration(t, f, Method(i), pc.value, 1, 51)
				if per > 0 {
					t.Fatalf("%.3f allocations per steady-state iteration, want 0", per)
				}
				_, solve4 := allocsPerIteration(t, few, Method(i), pc.value, 1, 2)
				if solve > solve4+8 {
					t.Fatalf("%v allocations per warm solve at %d ranks, %v at 4: per-solve cost scales with ranks",
						solve, f.d.NRanks, solve4)
				}
			})
		}
	}
	for _, m := range []Method{MethodChronGear, MethodPCSI} {
		t.Run(fmt.Sprintf("threads-1-2-%v", m), func(t *testing.T) {
			defer f.w.SetThreads(0)
			per, alt := allocsPerIteration(t, f, m, PrecondEVP, 1, 51, 1, 2)
			if per > 0 {
				t.Fatalf("%.3f allocations per steady-state iteration alternating Threads 1 and 2, want 0", per)
			}
			_, one := allocsPerIteration(t, f, m, PrecondEVP, 1, 51, 1)
			_, two := allocsPerIteration(t, f, m, PrecondEVP, 1, 51, 2)
			if 2*alt > one+two {
				t.Fatalf("%v allocations per warm solve alternating Threads 1 and 2, %v at 1 and %v at 2: a switch rebuilds",
					alt, one, two)
			}
		})
	}
}

// residualHistory runs one PCSI solve and returns the exact residual
// sequence (bit patterns, not rounded prints).
func residualHistory(t *testing.T, s *Session, b []float64) []uint64 {
	t.Helper()
	res, _, err := s.Solve(MethodPCSI, b, make([]float64, len(b)))
	if !errors.Is(err, ErrNotConverged) { // capped on purpose
		t.Fatalf("capped solve: got %v, want ErrNotConverged", err)
	}
	hist := make([]uint64, 0, len(res.Trace.Residuals))
	for _, rp := range res.Trace.Residuals {
		hist = append(hist, math.Float64bits(rp.RelResidual))
	}
	if len(hist) == 0 {
		t.Fatal("solve recorded no residual checks")
	}
	return hist
}

// TestPCSIResidualHistoryBitwiseDeterministic asserts residual histories
// are bitwise reproducible both across sessions (fresh workspaces) and
// within one session (reused arenas and pooled buffers): the
// zero-allocation machinery must not perturb a single bit of the numerics.
func TestPCSIResidualHistoryBitwiseDeterministic(t *testing.T) {
	f := testFixture(t)
	opts := Options{Precond: PrecondEVP, Tol: 1e-300, MaxIters: 60, CheckEvery: 10}

	s1 := f.session(t, opts)
	h1 := residualHistory(t, s1, f.b)
	h1again := residualHistory(t, s1, f.b) // same session: warm arenas
	s2 := f.session(t, opts)
	h2 := residualHistory(t, s2, f.b) // fresh session: cold arenas

	for name, h := range map[string][]uint64{"same-session repeat": h1again, "fresh session": h2} {
		if len(h) != len(h1) {
			t.Fatalf("%s: %d residual checks, want %d", name, len(h), len(h1))
		}
		for i := range h {
			if h[i] != h1[i] {
				t.Fatalf("%s: residual %d differs: %016x vs %016x (bitwise)", name, i, h[i], h1[i])
			}
		}
	}
}
