package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/grid"
)

// chaosRHS builds one deterministic right-hand side on the test grid.
func chaosRHS(t *testing.T) []float64 {
	t.Helper()
	g, err := grid.ByName(grid.PresetTest)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			x := uint64(k)*2654435761 + 0x9E3779B9
			x ^= x >> 13
			b[k] = float64(x%1000)/500 - 1
		}
	}
	return b
}

// chaosService builds a service with the given injector and solver knobs on
// the test grid.
func chaosService(t *testing.T, inj *faults.Injector, opts Options) *Service {
	t.Helper()
	opts.Injector = inj
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// Under a moderate fault plan every request still converges: the resilient
// solvers absorb the injected faults, and the service records the recovery
// work in its stats.
func TestServeRecoversUnderFaults(t *testing.T) {
	inj := faults.New(faults.Plan{Seed: 41, ReduceFailProb: 0.05,
		StragglerProb: 0.02, StragglerDelay: 1e-3, CrashProb: 0.005})
	svc := chaosService(t, inj, Options{
		Solver: core.Options{Tol: 1e-8, MaxRecoveries: 200},
	})
	b := chaosRHS(t)

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := svc.Solve(context.Background(),
				Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b})
			if err != nil {
				errs[c] = err
				return
			}
			if !resp.Result.Converged {
				errs[c] = errors.New("not converged")
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	total := int64(0)
	for _, v := range inj.Injected() {
		total += v
	}
	if total == 0 {
		t.Fatal("no faults injected — test exercised nothing")
	}
	st := svc.Snapshot()
	if st.Faulted != 0 {
		t.Fatalf("requests faulted beyond budget under a moderate plan: %+v", st)
	}
}

// A crash storm defeats the per-solve recovery budget; the request-level
// retry budget then re-runs the request (drawing fresh schedule slices) and
// requests that still fault surface a typed ErrFaulted.
func TestServeRetryBudgetAndFaultSurface(t *testing.T) {
	inj := faults.New(faults.Plan{Seed: 13, CrashProb: 0.95})
	svc := chaosService(t, inj, Options{
		Solver: core.Options{Tol: 1e-8, MaxIters: 300, MaxRecoveries: 2},
	})
	b := chaosRHS(t)
	_, err := svc.Solve(context.Background(),
		Request{Method: core.MethodChronGear, Precond: core.PrecondDiagonal, B: b})
	if !errors.Is(err, core.ErrFaulted) {
		t.Fatalf("crash storm returned %v, want ErrFaulted", err)
	}
	st := svc.Snapshot()
	if st.Retried == 0 {
		t.Fatalf("retry budget never consumed: %+v", st)
	}
	if st.Faulted == 0 {
		t.Fatalf("faulted request not counted: %+v", st)
	}
}

// A nil injector must leave the service exactly as before: no retries and
// the resilient path never engaged.
func TestServeNilInjectorInert(t *testing.T) {
	svc := chaosService(t, nil, Options{Solver: core.Options{Tol: 1e-8}})
	resp, err := svc.Solve(context.Background(),
		Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: chaosRHS(t)})
	if err != nil || !resp.Result.Converged {
		t.Fatalf("solve: err=%v converged=%v", err, resp.Result.Converged)
	}
	st := svc.Snapshot()
	if st.Retried != 0 || st.Faulted != 0 || st.Recovered != 0 {
		t.Fatalf("resilience counters moved without an injector: %+v", st)
	}
}
