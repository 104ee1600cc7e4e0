// Package analysis is poplint: a go/analysis suite that statically enforces
// the determinism, hot-path and error-handling invariants the solver's
// correctness and performance results rest on (DESIGN.md §10).
//
// The paper's barotropic solvers are SPMD programs whose floating-point
// accumulations must be bitwise reproducible run to run and whose
// steady-state iteration paths must not allocate. Runtime tests (golden
// traces, allocation gates) hold those properties on the paths they run; the
// analyzers here enforce them over every code path at build time:
//
//   - [Determinism]: no wall-clock time, no math/rand, no map-order- or
//     goroutine-spawn-order-dependent float accumulation in the numerics
//     packages.
//   - [HotPathAlloc]: functions annotated //pop:hotpath must not contain
//     allocation sites — the zero-alloc benchmark gate as a compile-time
//     property.
//   - [CtxFlow]: library code must not mint fresh context.Background/TODO;
//     incoming contexts must be threaded.
//   - [TypedErr]: error returns in the public-facing packages must wrap
//     with %w or use the typed Err*/*Error values so errors.Is/As matching
//     cannot silently rot.
//
// These are the invariants only a static check holds: the first two were
// each shown to be the only tripwire for a seeded defect, the last two are
// generic lints no test could express (EXPERIMENTS.md, "Relegation (b)").
// SPMD lockstep — every shard reaching the same collectives in the same
// order — is held at run time instead: a collective inside a per-rank pass
// panics, and a shard that skips one stalls the run with a diagnostic naming
// every shard's wait site (DESIGN.md §14.1). So are the protocol invariants —
// ladder membership, reduction widths, wire-field parity (DESIGN.md §14).
// There is no suppression directive: a false positive is fixed in the
// analyzer, where the next reader will see it.
//
// The multichecker binary lives in cmd/poplint and runs standalone
// (`poplint ./...`) or as a vet tool (`go vet -vettool=$(which poplint)`).
package analysis

import "golang.org/x/tools/go/analysis"

// All returns every poplint analyzer, in deterministic order. cmd/poplint
// registers exactly this list, and the meta-test in this package asserts the
// list covers every analyzer the package defines.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		HotPathAlloc,
		CtxFlow,
		TypedErr,
	}
}
