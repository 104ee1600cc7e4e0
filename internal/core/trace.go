package core

import (
	"repro/internal/comm"
	"repro/internal/obs"
)

// Solver telemetry: every solve records its convergence history on rank 0
// and attaches it to the Result as a SolveTrace — the per-iteration record
// behind the paper's §5.2 figures (residual trajectories, Lanczos bound
// evolution, the P-CSI guards firing). Recording happens only at
// convergence checks and guard events (every CheckEvery iterations), so the
// iteration hot path is untouched; the richer per-phase event stream lives
// in the comm tracer and is enabled separately.

// ResidualPoint is one convergence check: the relative residual ‖r‖/‖b‖
// observed at iteration Iter, with rank 0's virtual clock at that moment.
type ResidualPoint struct {
	Iter        int     `json:"iter"`         // iteration of the check
	RelResidual float64 `json:"rel_residual"` // ‖r‖/‖b‖ observed there
	Clock       float64 `json:"clock"`        // rank 0's virtual clock (s)
}

// EigBound is one Lanczos step's extreme Ritz-value estimate of the
// spectrum of M⁻¹A, with the relative Ritz residuals β_{k+1}|s_k|/θ the
// adaptive estimate stops on. The residuals need the next step's ρ, so they
// are 0 on the last step of a run that ended on its step count.
type EigBound struct {
	Step  int     `json:"step"`   // Lanczos step number
	Nu    float64 `json:"nu"`     // smallest Ritz value so far
	Mu    float64 `json:"mu"`     // largest Ritz value so far
	NuRes float64 `json:"nu_res"` // relative residual of the ν Ritz pair
	MuRes float64 `json:"mu_res"` // relative residual of the μ Ritz pair
}

// IntervalEvent records one adaptive widening of P-CSI's Chebyshev
// interval: Kind is "raise-mu" (divergence guard) or "widen-nu"
// (slow-convergence guard); Nu and Mu are the interval after the change.
type IntervalEvent struct {
	Iter int     `json:"iter"` // iteration the guard fired at
	Kind string  `json:"kind"` // "raise-mu" or "widen-nu"
	Nu   float64 `json:"nu"`   // interval lower bound after the change
	Mu   float64 `json:"mu"`   // interval upper bound after the change
}

// SolveTrace is the per-iteration telemetry of one solve.
type SolveTrace struct {
	// Residuals holds every convergence check, in iteration order.
	Residuals []ResidualPoint `json:"residuals"`
	// EigBounds is the Lanczos eigenvalue-bound evolution of the estimate
	// the solve started from: the session's last one, which an earlier
	// solve may have made (P-CSI and s-step; empty for the others). Each
	// Result holds its own copy.
	EigBounds []EigBound `json:"eig_bounds,omitempty"`
	// Intervals lists the Chebyshev-interval adaptations (P-CSI only).
	Intervals []IntervalEvent `json:"intervals,omitempty"`
}

// traceResidual records one convergence check: rank 0 appends to the solve
// trace, and every rank with an enabled tracer emits a point event (each
// rank observes the check at its own virtual time).
func traceResidual(r *comm.Rank, tr *SolveTrace, iter int, rel float64) {
	if r.ID == 0 {
		tr.Residuals = append(tr.Residuals, ResidualPoint{Iter: iter, RelResidual: rel, Clock: r.Clock()})
	}
	if rt := r.Trace(); rt != nil {
		rt.Add(obs.Event{Name: obs.EvResidual, Point: true, T0: r.Clock(), T1: r.Clock(),
			Iter: iter, Value: rel, Straggler: -1})
	}
}

// traceInterval records one P-CSI interval adaptation.
func traceInterval(r *comm.Rank, tr *SolveTrace, iter int, kind string, nu, mu float64) {
	if r.ID == 0 {
		tr.Intervals = append(tr.Intervals, IntervalEvent{Iter: iter, Kind: kind, Nu: nu, Mu: mu})
	}
	if rt := r.Trace(); rt != nil {
		name := obs.EvIntervalWiden
		if kind == "raise-mu" {
			name = obs.EvIntervalRaise
		}
		rt.Add(obs.Event{Name: name, Point: true, T0: r.Clock(), T1: r.Clock(),
			Iter: iter, Value: nu, Aux: mu, Straggler: -1})
	}
}

// traceEigBound records one Lanczos step's bound estimate.
func traceEigBound(r *comm.Rank, step int, nu, mu float64) {
	if rt := r.Trace(); rt != nil {
		rt.Add(obs.Event{Name: obs.EvEigBound, Point: true, T0: r.Clock(), T1: r.Clock(),
			Iter: step, Value: nu, Aux: mu, Straggler: -1})
	}
}
