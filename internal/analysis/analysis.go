// Package analysis is poplint: a go/analysis suite that statically enforces
// the SPMD, determinism, and hot-path invariants the solver's correctness
// and performance results rest on (DESIGN.md §10).
//
// The paper's barotropic solvers are SPMD rank programs whose global
// reductions and halo exchanges must be reached in the same order by every
// rank, whose floating-point accumulations must be bitwise reproducible run
// to run, and whose steady-state iteration paths must not allocate. PRs 2–4
// made those properties hold and guard them with runtime tests (golden
// traces, allocation gates, lockstep fault verdicts); the analyzers here
// enforce them over every code path at build time:
//
//   - [CollectiveLockstep]: a collective (AllReduce, Exchange, Barrier, …)
//     reachable only under a branch conditioned on rank-local state is a
//     divergence/deadlock hazard.
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
// These are the invariants only a static check holds: the first three were
// each shown to be the only tripwire for a seeded defect, the last two are
// generic lints no test could express (EXPERIMENTS.md, "Relegation (b)").
// The protocol invariants — ladder membership, reduction
// widths, wire-field parity — are enforced where they live instead (DESIGN.md
// §14). There is no suppression directive: a false positive is fixed in the
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
		CollectiveLockstep,
		Determinism,
		HotPathAlloc,
		CtxFlow,
		TypedErr,
	}
}
