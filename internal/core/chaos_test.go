package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/faults"
)

// trueRelResidual computes ‖b − Ax‖/‖b‖ with the global operator — an
// oracle independent of everything the distributed solve (and the fault
// injector) touched.
func trueRelResidual(f *fixture, x []float64) float64 {
	y := make([]float64, f.g.N())
	f.op.Apply(y, x)
	for k := range y {
		y[k] = f.b[k] - y[k]
	}
	return f.op.MaskedNorm2(y) / f.op.MaskedNorm2(f.b)
}

// chaosHistory solves with the given method and returns the residual-check
// bit patterns plus the solution copy and result.
func chaosSolve(t *testing.T, s *Session, m Method, b []float64) (Result, []float64, []uint64) {
	t.Helper()
	res, x, err := s.SolveContext(context.Background(), m, b, nil)
	if err != nil {
		t.Fatalf("%v solve: %v", m, err)
	}
	hist := make([]uint64, 0, len(res.Trace.Residuals))
	for _, rp := range res.Trace.Residuals {
		hist = append(hist, math.Float64bits(rp.RelResidual))
	}
	xc := append([]float64(nil), x...)
	return res, xc, hist
}

// With the injector wired into the world but carrying a zero plan (or with
// no injector at all), solves must be bitwise identical to the golden
// fault-free traces — the resilience machinery must be invisible when idle.
func TestInjectorDisabledBitwiseIdentical(t *testing.T) {
	opts := Options{Precond: PrecondEVP, Tol: 1e-300, MaxIters: 60, CheckEvery: 10}
	for _, m := range chaosMethods {
		fGold := testFixture(t)
		sGold := fGold.session(t, opts)
		_, xGold, hGold := chaosSolve(t, sGold, m, fGold.b)

		fZero := testFixture(t)
		fZero.w.Faults = faults.New(faults.Plan{Seed: 1}) // wired in, inert
		sZero := fZero.session(t, opts)
		_, xZero, hZero := chaosSolve(t, sZero, m, fZero.b)

		if len(hGold) != len(hZero) {
			t.Fatalf("%v: history lengths differ: %d vs %d", m, len(hGold), len(hZero))
		}
		for i := range hGold {
			if hGold[i] != hZero[i] {
				t.Fatalf("%v: residual history diverges at check %d: %x vs %x",
					m, i, hGold[i], hZero[i])
			}
		}
		for k := range xGold {
			if math.Float64bits(xGold[k]) != math.Float64bits(xZero[k]) {
				t.Fatalf("%v: solution differs at %d: %v vs %v", m, k, xGold[k], xZero[k])
			}
		}
	}
}

// chaosCase runs one solver under one fault class and asserts recovery: the
// solve converges, the independently recomputed residual honours the
// configured tolerance (same tolerance as a fault-free solve), and the
// injector actually fired. threads is the world's worker knob (0 = default).
func chaosCase(t *testing.T, m Method, plan faults.Plan, class faults.Class, maxRec, threads int) (Result, []float64) {
	t.Helper()
	f := testFixture(t)
	f.w.SetThreads(threads)
	inj := faults.New(plan)
	f.w.Faults = inj
	s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 4000,
		MaxRecoveries: maxRec})
	res, x, err := s.SolveResilient(context.Background(), m, f.b, nil)
	if err != nil {
		t.Fatalf("%v under %v: %v", m, class, err)
	}
	if !res.Converged {
		t.Fatalf("%v under %v did not converge (%d iters, rel %g)",
			m, class, res.Iterations, res.RelResidual)
	}
	if inj.InjectedCount(class) == 0 {
		t.Fatalf("%v: no %v faults injected — test exercised nothing", m, class)
	}
	if rel := trueRelResidual(f, x); rel > 1e-10 {
		t.Fatalf("%v under %v: recovered solve residual %g exceeds tolerance 1e-10", m, class, rel)
	}
	return res, x
}

// chaosMethods is the whole zoo: every method runs under the same check
// ladder, so every method is held to every fault class.
var chaosMethods = []Method{MethodChronGear, MethodPCG, MethodPCSI, MethodSStep}

// chaosClasses is the fault-class axis of the 4 × 5 recovery table: the plan
// that injects the class, the rollback budget it needs, and what — beyond
// chaosCase's convergence to the true-residual tolerance — must show in the
// result.
var chaosClasses = map[faults.Class]struct {
	plan   func(Method) faults.Plan
	maxRec int
	check  func(t *testing.T, m Method, res Result)
}{
	faults.Straggler: {
		plan: func(Method) faults.Plan {
			return faults.Plan{Seed: 11, StragglerProb: 0.05, StragglerDelay: 2e-3}
		},
		check: func(t *testing.T, m Method, res Result) {
			// Stragglers delay clocks but break nothing: no recovery actions.
			if res.Recovery.Restores != 0 || res.Recovery.ReduceRetries != 0 {
				t.Fatalf("%v: stragglers triggered recovery: %+v", m, res.Recovery)
			}
			// The injected delay must show up on the virtual clock.
			if res.Stats.MaxClock <= 0 {
				t.Fatalf("%v: straggler delays left the virtual clock at zero", m)
			}
		},
	},
	faults.ReduceFail: {
		plan: func(Method) faults.Plan { return faults.Plan{Seed: 7, ReduceFailProb: 0.2} },
		check: func(t *testing.T, m Method, res Result) {
			if res.Recovery.ReduceRetries == 0 {
				t.Fatalf("%v: reduce failures injected but no retries recorded", m)
			}
		},
	},
	faults.HaloDrop: {
		// Drop rates are per rank per exchange phase (32 draws/iteration on
		// the 16-rank test decomposition), so these model occasional message
		// loss, not a dead link. Stationary P-CSI damps the resulting state
		// errors and tolerates a much higher rate than the CG family, whose
		// recursive residuals go quietly stale after every drop and rely on
		// the stagnation tripwire and the confirm-on-converge check to recover.
		plan: func(m Method) faults.Plan {
			if m == MethodPCSI {
				return faults.Plan{Seed: 3, HaloDropProb: 0.02}
			}
			return faults.Plan{Seed: 3, HaloDropProb: 1e-3}
		},
		maxRec: 200,
	},
	faults.HaloCorrupt: {
		// Every corruption plants a NaN that reaches the residual within one
		// check interval, so each incident costs one checkpoint restore — the
		// budget must cover the expected incident count over the solve.
		plan:   func(Method) faults.Plan { return faults.Plan{Seed: 5, HaloCorruptProb: 1e-3} },
		maxRec: 200,
		check: func(t *testing.T, m Method, res Result) {
			if res.Recovery.Restores == 0 && res.Recovery.Reconverges == 0 {
				t.Fatalf("%v: corruption injected but no rollback or reconverge recorded: %+v",
					m, res.Recovery)
			}
		},
	},
	faults.RankCrash: {
		// P-CSI on its converged Lanczos interval needs ~120 iterations here,
		// few enough that seed 9 at 0.01 draws no crash before it converges;
		// it gets the higher rate so its row still restores from a crash.
		plan: func(m Method) faults.Plan {
			if m == MethodPCSI {
				return faults.Plan{Seed: 9, CrashProb: 0.03}
			}
			return faults.Plan{Seed: 9, CrashProb: 0.01}
		},
		maxRec: 200,
		check: func(t *testing.T, m Method, res Result) {
			if res.Recovery.Restores == 0 {
				t.Fatalf("%v: crashes injected but no checkpoint restores recorded", m)
			}
		},
	},
}

// chaosClass runs one row of the table: every method under one fault class.
func chaosClass(t *testing.T, class faults.Class) {
	row := chaosClasses[class]
	for _, m := range chaosMethods {
		t.Run(m.String(), func(t *testing.T) {
			res, _ := chaosCase(t, m, row.plan(m), class, row.maxRec, 0)
			if res.Recovery.Degraded != "" {
				t.Fatalf("%v under %v needed the %q rung; the check ladder alone must recover",
					m, class, res.Recovery.Degraded)
			}
			if row.check != nil {
				row.check(t, m, res)
			}
		})
	}
}

func TestStragglerRecovery(t *testing.T)   { chaosClass(t, faults.Straggler) }
func TestReduceFailRecovery(t *testing.T)  { chaosClass(t, faults.ReduceFail) }
func TestHaloDropRecovery(t *testing.T)    { chaosClass(t, faults.HaloDrop) }
func TestHaloCorruptRecovery(t *testing.T) { chaosClass(t, faults.HaloCorrupt) }
func TestRankCrashRecovery(t *testing.T)   { chaosClass(t, faults.RankCrash) }

// TestChaosAcrossThreads: a fault lands the same whether the halo edge it
// hits is a direct copy inside a worker's shard (Threads = 1: every edge), a
// mailbox (Threads = NRank: every edge) or either — one resilient ChronGear
// solve per fault class, recovery counts, solution bits and the priced clock
// equal across the three.
func TestChaosAcrossThreads(t *testing.T) {
	const m = MethodChronGear
	nrank := testFixture(t).w.NRank
	for _, class := range faults.Classes() {
		row := chaosClasses[class]
		t.Run(class.String(), func(t *testing.T) {
			ref, xRef := chaosCase(t, m, row.plan(m), class, row.maxRec, 1)
			for _, threads := range []int{2, nrank} {
				got, x := chaosCase(t, m, row.plan(m), class, row.maxRec, threads)
				if got.Recovery != ref.Recovery || got.Iterations != ref.Iterations {
					t.Fatalf("threads %d: %d iterations, recovery %+v; Threads=1 took %d, %+v",
						threads, got.Iterations, got.Recovery, ref.Iterations, ref.Recovery)
				}
				if math.Float64bits(got.Stats.MaxClock) != math.Float64bits(ref.Stats.MaxClock) {
					t.Fatalf("threads %d: MaxClock %v, Threads=1 gave %v", threads, got.Stats.MaxClock, ref.Stats.MaxClock)
				}
				for k := range xRef {
					if math.Float64bits(x[k]) != math.Float64bits(xRef[k]) {
						t.Fatalf("threads %d: solution bit-differs at %d", threads, k)
					}
				}
			}
		})
	}
}

// Exhausting the recovery budget must surrender with a typed ErrFaulted
// carrying the recovery counts.
func TestRecoveryBudgetExhaustionFaults(t *testing.T) {
	f := testFixture(t)
	f.w.Faults = faults.New(faults.Plan{Seed: 2, CrashProb: 0.9})
	s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 2000, MaxRecoveries: 2})
	_, _, err := s.SolveContext(context.Background(), MethodPCSI, f.b, nil)
	if !errors.Is(err, ErrFaulted) {
		t.Fatalf("crash storm returned %v, want ErrFaulted", err)
	}
	var fe *FaultedError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v does not carry *FaultedError", err)
	}
	if fe.Restores == 0 {
		t.Fatalf("FaultedError reports no restores: %+v", fe)
	}
}

// MaxRecoveries < 0 disables the resilience machinery even under an active
// injector: the legacy NaN tripwire path runs instead.
func TestNegativeMaxRecoveriesDisables(t *testing.T) {
	f := testFixture(t)
	f.w.Faults = faults.New(faults.Plan{Seed: 2, CrashProb: 0.9})
	s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 200, MaxRecoveries: -1})
	res, _, err := s.SolveContext(context.Background(), MethodPCSI, f.b, nil)
	if errors.Is(err, ErrFaulted) {
		t.Fatal("disabled resilience still surrendered with ErrFaulted")
	}
	if res.Recovery.Restores != 0 {
		t.Fatalf("disabled resilience still restored: %+v", res.Recovery)
	}
}

// The degraded-mode ladder, rung 1: a corrupted Chebyshev interval makes
// P-CSI diverge; SolveResilient re-estimates the eigenvalue bounds and the
// retry converges.
func TestLadderReEstimatesEigenvalues(t *testing.T) {
	f := testFixture(t)
	inj := faults.New(faults.Plan{Seed: 1, HaloDropProb: 1e-12}) // active, ~never fires
	f.w.Faults = inj
	s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 3000})
	if err := s.Setup(); err != nil {
		t.Fatal(err)
	}
	s.Nu, s.Mu = 1e-9, 2e-9 // nonsense interval: P-CSI will diverge
	res, x, err := s.SolveResilient(context.Background(), MethodPCSI, f.b, nil)
	if err != nil || !res.Converged {
		t.Fatalf("ladder failed: err=%v converged=%v", err, res.Converged)
	}
	if res.Recovery.Degraded != "re-eig" {
		t.Fatalf("Degraded = %q, want re-eig", res.Recovery.Degraded)
	}
	if rel := trueRelResidual(f, x); rel > 1e-10 {
		t.Fatalf("re-eig result residual %g exceeds tolerance", rel)
	}
	if inj.Recoveries()["re-eig"] != 1 {
		t.Fatalf("re-eig recovery not counted: %v", inj.Recoveries())
	}
}

// The degraded-mode ladder, rung 2: when the re-estimated bounds are also
// useless (sabotaged safety factors), P-CSI falls back to ChronGear.
func TestLadderFallsBackToChronGear(t *testing.T) {
	f := testFixture(t)
	inj := faults.New(faults.Plan{Seed: 1, HaloDropProb: 1e-12})
	f.w.Faults = inj
	s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 3000,
		EigSafetyLow: 1e-6, EigSafetyHigh: 2e-6}) // re-estimation lands on garbage too
	if err := s.Setup(); err != nil {
		t.Fatal(err)
	}
	s.Nu, s.Mu = 1e-9, 2e-9
	res, x, err := s.SolveResilient(context.Background(), MethodPCSI, f.b, nil)
	if err != nil || !res.Converged {
		t.Fatalf("ladder failed: err=%v converged=%v", err, res.Converged)
	}
	if res.Recovery.Degraded != "chrongear" {
		t.Fatalf("Degraded = %q, want chrongear", res.Recovery.Degraded)
	}
	if res.Solver != "chrongear" {
		t.Fatalf("Solver = %q, want chrongear", res.Solver)
	}
	if rel := trueRelResidual(f, x); rel > 1e-10 {
		t.Fatalf("chrongear fallback residual %g exceeds tolerance", rel)
	}
	if inj.Recoveries()["chrongear"] != 1 {
		t.Fatalf("chrongear recovery not counted: %v", inj.Recoveries())
	}
}

// The ladder's membership comes from the methods table, and so does this
// test's: with an active injector that never fires and an iteration cap no
// method converges under, every row must descend exactly the rungs its table
// entry implies — Lanczos re-run first for the rows that lean on the
// interval, then ChronGear (whose own non-convergence is what comes back) for
// every row but ChronGear itself. A row added to methods is held to this
// without being listed anywhere.
func TestLadderCoversMethodsTable(t *testing.T) {
	for i, spec := range methods {
		m := Method(i)
		t.Run(m.String(), func(t *testing.T) {
			f := testFixture(t)
			f.w.Faults = faults.New(faults.Plan{Seed: 1, HaloDropProb: 1e-12})
			s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-13, MaxIters: 5})
			if _, _, _, err := s.EstimateEigenvalues(nil, 0); err != nil {
				t.Fatal(err)
			}
			s.EigenStats = nil // set again only by a fresh Lanczos run
			res, _, err := s.SolveResilient(context.Background(), m, f.b, nil)
			if res.Converged {
				t.Fatalf("%v converged in 5 iterations; the test exercised no rung", m)
			}
			if reEig := s.EigenStats != nil; reEig != (spec.diverged != "") {
				t.Errorf("%v: Lanczos re-ran = %v, but its methods row says leans-on-interval = %v",
					m, reEig, spec.diverged != "")
			}
			if m == MethodChronGear {
				if err != nil {
					t.Errorf("chrongear is the last rung, got %v", err)
				}
				return
			}
			var nc *NotConvergedError
			if !errors.As(err, &nc) || nc.Solver != "chrongear" {
				t.Errorf("%v skipped the ChronGear rung: got %v, want a *NotConvergedError naming chrongear", m, err)
			}
		})
	}
}

// Chaos schedules replay: the same plan yields the same recovery counts and
// the same residual history, bit for bit.
func TestChaosRunsDeterministic(t *testing.T) {
	run := func() (Result, []uint64) {
		f := testFixture(t)
		f.w.Faults = faults.New(faults.Plan{Seed: 21, HaloCorruptProb: 1e-4,
			ReduceFailProb: 0.05, CrashProb: 0.002})
		s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 4000,
			MaxRecoveries: 200})
		res, _, err := s.SolveContext(context.Background(), MethodPCSI, f.b, nil)
		if err != nil {
			t.Fatal(err)
		}
		hist := make([]uint64, 0, len(res.Trace.Residuals))
		for _, rp := range res.Trace.Residuals {
			hist = append(hist, math.Float64bits(rp.RelResidual))
		}
		return res, hist
	}
	resA, hA := run()
	resB, hB := run()
	if resA.Recovery != resB.Recovery {
		t.Fatalf("recovery counts differ across identical chaos runs: %+v vs %+v",
			resA.Recovery, resB.Recovery)
	}
	if len(hA) != len(hB) {
		t.Fatalf("history lengths differ: %d vs %d", len(hA), len(hB))
	}
	for i := range hA {
		if hA[i] != hB[i] {
			t.Fatalf("chaos residual history diverges at check %d", i)
		}
	}
}
