package pop_test

import (
	"context"
	"errors"
	"fmt"

	pop "repro"
)

// exampleRHS builds a right-hand side whose exact solution is 1 on every
// ocean point: b = A·1. Solving it exercises the full distributed pipeline
// with a known answer.
func exampleRHS(g *pop.Grid) []float64 {
	op := pop.AssembleOperator(g, g.Tau())
	ones := make([]float64, g.N())
	for k, m := range g.Mask {
		if m {
			ones[k] = 1
		}
	}
	b := make([]float64, g.N())
	op.Apply(b, ones)
	for k, m := range g.Mask {
		if !m {
			b[k] = 0
		}
	}
	return b
}

// The quickstart: build a grid, configure the paper's solver (P-CSI with the
// block-EVP preconditioner), and solve one barotropic system across four
// virtual ranks.
func ExampleNewSolver() {
	g, err := pop.NewGrid(pop.GridTest)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	s, err := pop.NewSolver(g, pop.SolverSpec{
		Method:  pop.MethodPCSI,
		Precond: pop.PrecondEVP,
		Cores:   4,
	})
	if err != nil {
		fmt.Println("solver:", err)
		return
	}
	res, x, err := s.Solve(exampleRHS(g), nil)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("converged:", res.Converged)
	fmt.Println("solution length matches grid:", len(x) == g.N())
	// Output:
	// converged: true
	// solution length matches grid: true
}

// Communication avoidance: the s-step solver batches s matrix-vector
// products between global reductions, so a converged solve issues at most
// ceil(iterations/s)+1 reductions instead of one (or more) per iteration.
// The block size s is fixed at 4, the cheapest priced at 1° (SOLVERS.md).
func Example_sstep() {
	g, err := pop.NewGrid(pop.GridTest)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	s, err := pop.NewSolver(g, pop.SolverSpec{
		Method:  pop.MethodSStep,
		Precond: pop.PrecondEVP,
		Cores:   4,
	})
	if err != nil {
		fmt.Println("solver:", err)
		return
	}
	res, _, err := s.Solve(exampleRHS(g), nil)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	const blockSize = 4
	bound := int64((res.Iterations+blockSize-1)/blockSize) + 1
	perRank := res.Stats.Sum.Reductions / int64(len(res.Stats.PerRank))
	fmt.Println("converged:", res.Converged)
	fmt.Println("reductions within ceil(iters/s)+1:", perRank <= bound)
	// Output:
	// converged: true
	// reductions within ceil(iters/s)+1: true
}

// Serving pool: a Service owns warmed-up sessions per (grid, method,
// preconditioner) and is safe to call from any number of goroutines.
func ExampleNewService() {
	g, err := pop.NewGrid(pop.GridTest)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	svc := pop.NewService(pop.ServiceOptions{Cores: 4, MaxSessionsPerKey: 2})
	defer svc.Close(context.Background())

	resp, err := svc.Solve(context.Background(), pop.ServeRequest{
		Grid:    pop.GridTest,
		Method:  pop.MethodPCSI,
		Precond: pop.PrecondEVP,
		B:       exampleRHS(g),
	})
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Println("converged:", resp.Result.Converged)
	fmt.Println("warm sessions:", svc.Snapshot().Sessions)
	// Output:
	// converged: true
	// warm sessions: 1
}

// Cancellation: SolveContext observes ctx at every convergence-check
// boundary, so an already-cancelled context returns immediately with an
// error matching the context's cause — and never perturbs the numerics of
// uncancelled solves.
func ExampleSolver_SolveContext() {
	g, err := pop.NewGrid(pop.GridTest)
	if err != nil {
		fmt.Println("grid:", err)
		return
	}
	s, err := pop.NewSolver(g, pop.SolverSpec{
		Method:  pop.MethodPCSI,
		Precond: pop.PrecondEVP,
		Cores:   4,
	})
	if err != nil {
		fmt.Println("solver:", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = s.SolveContext(ctx, exampleRHS(g), nil)
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	// Output:
	// cancelled: true
}
