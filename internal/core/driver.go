package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/obs"
)

// The Krylov driver. The paper's Algorithms 1 and 2 differ only in the body
// of an iteration; everything around that body is written once, here:
// scatter, r₀ = b − A·x₀, ‖b‖ and the zero right-hand-side exit, the
// [‖r‖², cancel, crash] tail that rides a step's reduction on a check, the
// retry of a failed reduction, the residual trace, the NaN exit, the
// convergence verdict and its fresh-halo confirmation, checkpoint and
// lockstep rollback, residual replacement, gather, and the one mapping of
// how a solve ended onto ctx / *FaultedError / *NotConvergedError. A method
// is a recurrence — the hooks below — plus one row of the methods table
// (method.go); the driver never asks which method it is running.
//
// One step of loop.iterate:
//
//	local    rank-local work up to the step's reduction → partial sums
//	reduce   the sums, plus the tail when the step carries a check
//	         (skipped when there is nothing to reduce: P-CSI between checks)
//	check    crash / convergence / NaN / tripwire / drift watch / the
//	         recurrence's own observe → one verdict
//	advance  the recurrence consumes the reduced sums
//
// Every decision of the check ladder is a function of reduced values, so it
// is identical on every rank and the collectives behind it (confirmation,
// rollback, replacement) are entered in lockstep. Its resilient half —
// retry, checkpoint, confirmation, rollback, tripwire — runs only under an
// active fault injector (resilient.go); without one a solve is bitwise what
// it was before fault injection existed.

// recurrence is one method's iteration body. The hooks run inside the rank
// program; each takes the loop for the rank handle, the shared fields
// (l.x, l.b, l.rr) and the iteration counter l.k. A hook may exchange halos
// but never reduces: reductions are the driver's.
type recurrence interface {
	// bind fetches the recurrence's own fields from the session arena and
	// resets its scalars for a new solve.
	bind(l *loop)
	// begin runs once, with r₀ = b − A·x₀ in l.rr: whatever the first step
	// expects beyond r₀.
	begin(l *loop)
	// local does the rank-local part of one step and writes the rank's
	// partial sums into p (shape.width entries). It reports whether the step
	// carries a convergence check and, if so, the rank's local ‖r‖². It also
	// counts: a per-iteration method counts its iteration here (POP's
	// convention: the check at iteration k sees the residual entering it),
	// s-step counts a block's s iterations once the block is applied or
	// discarded.
	local(l *loop, p []float64) (check bool, rn2 float64)
	// observe runs on a check the driver itself found nothing wrong with:
	// the recurrence's scalar guards, on its reduced sums g and the reduced
	// ‖r‖. Whatever it computes must derive from reduced values only.
	observe(l *loop, g []float64, rn float64) verdict
	// advance consumes the reduced sums g and finishes the step.
	advance(l *loop, g []float64)
	// restart is called when the step in flight is discarded and l.rr has
	// just been recomputed from l.x (rollback, failed confirmation,
	// replacement): drop directions and scalars so the next step starts the
	// way the first one did.
	restart(l *loop)
}

// overlapper is the optional hook of a recurrence that hides work behind
// its step reduction (PipeCG): local sets l.hide to the flops of that work,
// the driver prices the reduction with them (comm.Rank.AllReduceOverlap) and
// calls overlapped right after it, before the check ladder.
type overlapper interface {
	overlapped(l *loop)
}

// shape is what the driver needs to know about a method's step, as data.
type shape struct {
	width int // partial sums the recurrence reduces per step (0: none between checks)
	span  int // iterations between convergence checks
	// rides: ‖b‖² rides the first step's reduction instead of paying its own.
	rides bool
	// recursive: the residual is maintained by recursion, so under fault
	// injection it can go quietly stale — the cgStallChecks tripwire applies.
	recursive bool
	// drift: the recursion drifts from b − A·x near the round-off floor; the
	// drift watch answers with residual replacement. giveUp stops the solve
	// when a replacement did not help either (s-step: its floor is set by
	// the basis conditioning, not by the drift).
	drift, giveUp bool
}

// verdict is what a convergence check decides about the step that carried
// it, weakest first; when several guards speak the strongest wins.
type verdict int

const (
	proceed verdict = iota // advance; checkpoint the iterate in resilient mode
	hold                   // advance, but do not checkpoint this iterate
	replace                // recompute r = b − A·x on fresh halos, restart the recurrence
	restore                // roll every rank back to the checkpoint, then as replace
	stop                   // no further progress is possible
)

const (
	// driftFloor arms the drift watch: above this relative residual a
	// non-improving check is ordinary non-monotone CG behaviour, not drift.
	driftFloor = 1e-6
	// driftPatience is how many stalled iterations (iterations, not checks:
	// the patience must not depend on the check spacing) trigger a residual
	// replacement.
	driftPatience = 16
)

// solveRun is the state of one solve that every rank shares. Rank 0 alone
// writes the outcome fields; they are read after World.Run returns.
type solveRun struct {
	ctx       context.Context
	m         Method
	spec      *methodSpec
	sh        shape
	b, x0     []float64
	out       []float64
	inj       *faults.Injector
	resilient bool

	res       Result
	trace     *SolveTrace
	cancelled bool
	faulted   bool
}

// loop is one rank's driver state. It lives in rankState and owns the
// recurrences the rank has run, so a solve allocates nothing per rank.
type loop struct {
	s    *Session
	r    *comm.Rank
	rs   *rankState
	sr   *solveRun
	recs [MethodSStep + 1]recurrence
	rec  recurrence
	ov   overlapper // rec's overlap hook, nil for most

	x, b, rr [][]float64 // iterate, right-hand side, residual
	ck       [][]float64 // checkpoint of x (resilient mode)
	pay, g   []float64   // reduction payload; the last reduction's result

	k             int // iterations so far
	bnorm, target float64
	bn2           float64 // local ‖b‖², until it has been reduced
	pending       bool    // ‖b‖² rides and has not been reduced yet
	hide          int64   // flops hidden behind the next step reduction
	restores      int

	best  float64 // tripwire: best reduced ‖r‖ so far, and checks since
	stall int
	drift struct { // drift watch: the same, in iterations near the floor
		best     float64
		stall    int
		replaced bool
	}
}

// solve runs method m to completion or to one of the typed failures.
func (s *Session) solve(ctx context.Context, m Method, b, x0 []float64) (Result, []float64, error) {
	spec := &methods[m]
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Setup(); err != nil {
		return Result{}, nil, err
	}
	if ctx.Err() != nil {
		return Result{}, nil, ctxSolveErr(ctx, spec.name, 0)
	}
	o := s.Opts
	sr := &solveRun{ctx: ctx, m: m, spec: spec, sh: spec.shape(o), b: b, x0: x0, out: s.solveOut(),
		inj: s.W.Faults, trace: &SolveTrace{},
		res: Result{Solver: spec.name, Precond: o.Precond}}
	sr.resilient = sr.inj.Enabled() && o.MaxRecoveries >= 0
	if spec.diverged != "" {
		// The method leans on the Lanczos estimate of spec(M⁻¹A).
		if s.Mu == 0 {
			if _, _, _, err := s.EstimateEigenvalues(nil, 0); err != nil {
				return Result{}, nil, err
			}
		}
		if !(s.Nu > 0 && s.Mu > s.Nu) {
			return Result{}, nil, fmt.Errorf("core: invalid Chebyshev interval [%g, %g]: %w", s.Nu, s.Mu, ErrBadSpec)
		}
		sr.res.Nu, sr.res.Mu, sr.res.EigSteps = s.Nu, s.Mu, s.EigSteps
		sr.trace.EigBounds = s.EigTrace
	}
	sr.trace.Residuals = make([]ResidualPoint, 0, o.MaxIters/sr.sh.span+1)

	st := s.W.Run(func(r *comm.Rank) { s.state(r).loop.run(s, r, sr) })

	res := sr.res
	res.Stats = st
	res.Trace = sr.trace
	s.restoreLand(sr.out, b)
	switch {
	case sr.cancelled:
		return res, sr.out, ctxSolveErr(ctx, spec.name, res.Iterations)
	case sr.faulted:
		return res, sr.out, &FaultedError{Solver: spec.name, Iterations: res.Iterations,
			Restores: res.Recovery.Restores, ReduceRetries: res.Recovery.ReduceRetries}
	case res.Converged:
		return res, sr.out, nil
	}
	nc := &NotConvergedError{Solver: spec.name, Iterations: res.Iterations, RelResidual: res.RelResidual}
	switch {
	case spec.diverged != "" && (math.IsNaN(res.RelResidual) || res.RelResidual > 1e6):
		return res, sr.out, fmt.Errorf("core: %s [%g, %g] may not bracket the spectrum: %w", spec.diverged, s.Nu, s.Mu, nc)
	case math.IsNaN(res.RelResidual):
		return res, sr.out, nc
	}
	return res, sr.out, nil // ran out of iterations: Converged=false says so
}

// run is the rank program of a solve.
func (l *loop) run(s *Session, r *comm.Rank, sr *solveRun) {
	l.s, l.r, l.rs, l.sr = s, r, s.state(r), sr
	l.x = s.scatterMasked(r, "x", sr.x0)
	l.b = s.scatterMasked(r, "b", sr.b)
	l.rr = s.field(r, "r")
	if sr.resilient {
		l.ck = s.field(r, "ckpt")
	}
	if l.recs[sr.m] == nil {
		l.recs[sr.m] = sr.spec.new()
	}
	l.rec = l.recs[sr.m]
	l.ov, _ = l.rec.(overlapper)
	l.rec.bind(l)
	if n := sr.sh.width + 4; len(l.pay) < n {
		l.pay, l.g = make([]float64, n), make([]float64, n)
	}
	l.k, l.restores, l.hide, l.pending = 0, 0, 0, sr.sh.rides
	l.rearm()

	// r₀ = b − A·x₀ (halos valid from the scatter) and ‖b‖².
	l.bn2 = stageInitResidual(r, l.rs, l.rr, l.b, l.x)
	if !sr.sh.rides {
		l.pay[0] = l.bn2
		if !l.reduceRetry(l.pay[:1], false) {
			return
		}
	}
	converged := true // x = 0 solves a zero right-hand side exactly
	if sr.sh.rides || l.setNorm(l.g[0]) {
		l.rec.begin(l)
		if sr.resilient {
			copyFields(l.ck, l.x) // the initial checkpoint
		}
		converged = l.iterate()
	}
	if r.ID == 0 {
		sr.res.Iterations = l.k
		sr.res.Converged = converged
	}
	s.gatherSolution(r, sr.out, l.x)
}

// setNorm records the reduced ‖b‖² and reports whether there is anything to
// iterate on; if not it leaves the exact answer x = 0.
func (l *loop) setNorm(bn2 float64) bool {
	l.bnorm = math.Sqrt(bn2)
	l.target = l.s.Opts.Tol * l.bnorm
	l.bn2 = 0
	if l.r.ID == 0 {
		l.sr.res.BNorm = l.bnorm
	}
	if l.bnorm == 0 {
		zeroFields(l.x)
	}
	return l.bnorm != 0
}

// iterate is the one iteration loop; it reports whether the solve converged.
func (l *loop) iterate() bool {
	r, sr, sh, o := l.r, l.sr, l.sr.sh, l.s.Opts
	w := sh.width
	for l.k < o.MaxIters {
		check, rn2 := l.rec.local(l, l.pay[:w])
		n := w
		crashed := false
		if check {
			// The tail rides the step's reduction, so a check costs no
			// communication of its own and every rank reads one verdict.
			l.pay[n], l.pay[n+1] = rn2, cancelFlag(sr.ctx)
			n += 2
			if sr.resilient {
				l.pay[n] = 0
				if crashed = sr.inj.CrashRank(r.ID, r.ReduceSeq()); crashed {
					l.pay[n] = 1
				}
				n++
			}
			if sh.rides {
				l.pay[n] = l.bn2
				n++
			}
		}
		if n > 0 { // P-CSI has nothing to reduce between checks
			if !l.reduceRetry(l.pay[:n], l.ov != nil) {
				return false
			}
			if l.ov != nil {
				l.ov.overlapped(l)
			}
		}
		if !check {
			l.rec.advance(l, l.g[:w])
			continue
		}

		rn, cancelled := math.Sqrt(l.g[w]), l.g[w+1] != 0
		if l.pending {
			l.pending = false
			if !l.setNorm(l.g[n-1]) {
				return true
			}
		}
		if r.ID == 0 {
			sr.res.RelResidual = rn / l.bnorm
		}
		traceResidual(r, sr.trace, l.k, rn/l.bnorm)

		v := proceed
		switch {
		case sr.resilient && l.g[w+2] != 0:
			// A rank crashed this interval and its iterate is lost. The crash
			// preempts a simultaneous convergence verdict: roll back first
			// and re-prove convergence from the restored state.
			if crashed {
				zeroFields(l.x)
			}
			v = restore
		case rn <= l.target:
			if !sr.resilient {
				return true
			}
			// Confirm on fresh halos before trusting the verdict: a dropped
			// halo leaves a stale residual that can fake it.
			crn, ok := l.confirm()
			if !ok {
				return false
			}
			if crn <= l.target {
				if r.ID == 0 {
					sr.res.RelResidual = crn / l.bnorm
				}
				return true
			}
			if !math.IsNaN(crn) {
				// False convergence: l.rr was just recomputed, carry on from
				// the current iterate.
				l.rec.restart(l)
				l.rearm()
				l.recovered(recKindReconverge, "reconverge", &sr.res.Recovery.Reconverges)
				continue
			}
			v = restore
		case math.IsNaN(rn): // reduced, so every rank leaves or rolls back here
			if !sr.resilient {
				return false
			}
			v = restore
		case sr.resilient && sh.recursive:
			v = l.tripwire(rn)
		}
		if cancelled { // some rank saw ctx done — all ranks stop here
			if r.ID == 0 {
				sr.cancelled = true
			}
			return false
		}
		if v <= hold && sh.drift {
			v = max(v, l.driftWatch(rn))
		}
		if v <= hold {
			v = max(v, l.rec.observe(l, l.g[:w], rn))
		}
		if v == stop && sr.resilient {
			v = restore // under an injector a dead end is a fault to recover from
		}
		switch v {
		case stop:
			return false
		case restore:
			if l.restores++; l.restores > o.MaxRecoveries {
				l.surrender()
				return false
			}
			copyFields(l.x, l.ck)
			l.rearm()
			l.recovered(recKindRestore, "restore", &sr.res.Recovery.Restores)
			fallthrough
		case replace:
			// Discard the step in flight and restart the recurrence from an
			// honestly recomputed residual.
			l.recompute()
			l.rec.restart(l)
			continue
		case proceed:
			if sr.resilient {
				copyFields(l.ck, l.x) // free in the cost model: a node-local copy
				if r.ID == 0 {
					sr.res.Recovery.CheckpointIter = l.k
				}
			}
		}
		l.rec.advance(l, l.g[:w])
	}
	return false
}

// reduceRetry is the one way a running solve enters a global reduction; the
// result lands in l.g (a copy — the communicator's buffer is valid only
// until the next collective). In resilient mode a reduction the injector
// failed — a verdict every rank shares — is re-entered after a bounded
// exponential backoff on the virtual clock, up to reduceRetryLimit times;
// past that the solve surrenders and reduceRetry reports false. overlap
// prices the first attempt with the l.hide flops hidden behind it.
func (l *loop) reduceRetry(p []float64, overlap bool) bool {
	r, sr := l.r, l.sr
	var g []float64
	if overlap {
		g = r.AllReduceOverlap(p, l.hide)
	} else {
		g = r.AllReduce(p)
	}
	retries := 0
	for ; sr.resilient && r.ReduceFailed() && retries < reduceRetryLimit; retries++ {
		r.AddDelay(reduceBackoffBase * float64(int64(2)<<retries))
		g = r.AllReduce(p)
	}
	if r.ID == 0 {
		sr.res.Recovery.ReduceRetries += retries
	}
	if sr.resilient && r.ReduceFailed() {
		l.surrender()
		return false
	}
	if retries > 0 {
		l.traceRecover(recKindReduceRetry, -1)
		if r.ID == 0 {
			sr.inj.Recovered("reduce-retry")
		}
	}
	copy(l.g, g)
	return true
}

// recompute sets r = b − A·x on freshly exchanged halos.
func (l *loop) recompute() {
	l.r.Exchange(l.x)
	for i, loc := range l.rs.locs {
		residual(loc, l.rr[i], l.b[i], l.x[i])
		l.r.AddFlops(9 * int64(loc.InteriorLen()))
	}
}

// confirm re-proves a convergence verdict from a recomputed residual and one
// more reduction of its norm; ok is false when that reduction was lost.
func (l *loop) confirm() (crn float64, ok bool) {
	l.recompute()
	l.pay[0] = stageDot(l.r, l.rs, l.rr, l.rr)
	if !l.reduceRetry(l.pay[:1], false) {
		return 0, false
	}
	return math.Sqrt(l.g[0]), true
}

// rearm resets the tripwire and the drift watch: new solve, rollback, failed
// confirmation — not a replacement, which the watch must remember.
func (l *loop) rearm() {
	l.best, l.stall = math.Inf(1), 0
	l.drift.best, l.drift.stall, l.drift.replaced = math.Inf(1), 0, false
}

// tripwire is resilient mode's silent-corruption guard: a dropped halo
// leaves a recursive residual quietly inconsistent with b − A·x, so the
// reduced norm stops improving without ever reaching the convergence
// verdict (where confirm would catch it). A stalled check is not
// checkpointed — the recursion may have walked x away since the last
// improvement — and cgStallChecks of them in a row roll back.
func (l *loop) tripwire(rn float64) verdict {
	if rn < 0.999*l.best {
		l.best, l.stall = rn, 0
		return proceed
	}
	l.stall++
	if l.stall >= cgStallChecks {
		return restore
	}
	return hold
}

// driftWatch answers recursive-residual drift with residual replacement
// (van der Vorst-style reliable updates). Long recurrences — PipeCG's eight
// vectors, the s-step block recurrence — drift from b − A·x in finite
// precision and can plateau above the target; once the reduced residual is
// within driftFloor of ‖b‖, driftPatience iterations without a 1%
// improvement replace the residual by the true one and restart the
// recurrence from it: a halo exchange and a stencil sweep, no reduction.
func (l *loop) driftWatch(rn float64) verdict {
	d, sh := &l.drift, l.sr.sh
	if rn < 0.99*d.best {
		d.best, d.stall, d.replaced = rn, 0, false
		return proceed
	}
	if rn > driftFloor*l.bnorm {
		return proceed
	}
	if d.stall += sh.span; d.stall < driftPatience {
		return proceed
	}
	if d.replaced && sh.giveUp {
		return stop
	}
	d.replaced, d.stall = true, 0
	return replace
}

// recovered records one recovery action of the check ladder.
func (l *loop) recovered(kind int, name string, count *int) {
	l.traceRecover(kind, l.k)
	if l.r.ID == 0 {
		*count++
		l.sr.inj.Recovered(name)
	}
}

// traceRecover emits one recovery point event on the rank's trace.
func (l *loop) traceRecover(kind, iter int) {
	if rt := l.r.Trace(); rt != nil {
		rt.Add(obs.Event{Name: obs.EvRecover, Point: true, T0: l.r.Clock(),
			Value: float64(kind), Iter: iter, Straggler: -1})
	}
}

// surrender marks the solve as faulted beyond its recovery budget.
func (l *loop) surrender() {
	if l.r.ID == 0 {
		l.sr.faulted = true
	}
}

// field and zeroField are Session.field / zeroField for this rank.
func (l *loop) field(name string) [][]float64     { return l.s.field(l.r, name) }
func (l *loop) zeroField(name string) [][]float64 { return l.s.zeroField(l.r, name) }

// Cancellation protocol. A context passed into a solve is observed only at
// convergence-check boundaries, and only through the check's global
// reduction: each rank sums its local observation of ctx (cancelFlag) into
// one entry of the tail, so every rank sees the identical reduced verdict
// and leaves the iteration loop at the same check. Ranks observing ctx
// directly could disagree — cancellation racing the check would strand some
// ranks in the next collective. Riding the existing reduction adds no
// communication and cannot perturb the numerics between checks: the
// residual entries reduce exactly as before, so a cancelled solve's
// residual history is a bitwise prefix of the uncancelled one.

// cancelFlag returns 1 when ctx is cancelled or past its deadline.
func cancelFlag(ctx context.Context) float64 {
	if ctx.Err() != nil {
		return 1
	}
	return 0
}

// ctxSolveErr wraps the context's error with solve position for a solve
// stopped by cancellation; errors.Is matches context.Canceled or
// context.DeadlineExceeded.
func ctxSolveErr(ctx context.Context, solver string, iter int) error {
	return fmt.Errorf("core: %s solve cancelled at iteration %d: %w", solver, iter, context.Cause(ctx))
}

// copyFields copies a per-block field set (checkpoint save and restore).
func copyFields(dst, src [][]float64) {
	for i := range src {
		copy(dst[i], src[i])
	}
}
