// Package ctxlib exercises the ctxflow analyzer: mid-chain
// context.Background/TODO mints and dropped ctx parameters are diagnosed;
// the nil-default and Context-suffix wrapper idioms are not.
package ctxlib

import "context"

func work(ctx context.Context) error { return ctx.Err() }

func badMint() error {
	ctx := context.Background() // want `minted in library function badMint`
	return work(ctx)
}

func badTODO(items []int) {
	for range items {
		_ = work(context.TODO()) // want `minted in library function badTODO`
	}
}

func badUnused(ctx context.Context, n int) int { // want `has a ctx parameter it never threads`
	return n * 2
}

// Solver carries the Context-suffix wrapper pair.
type Solver struct{}

// SolveContext is the context-threading entrypoint.
func (s *Solver) SolveContext(ctx context.Context, b []float64) error {
	return ctx.Err()
}

// Solve is the documented background-entrypoint wrapper: legal.
func (s *Solver) Solve(b []float64) error {
	return s.SolveContext(context.Background(), b)
}

// API nil-defaults at the boundary: legal.
func API(ctx context.Context, b []float64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return work(ctx)
}

// blank discards its context explicitly, which is legal.
func blank(_ context.Context, n int) int { return n }
