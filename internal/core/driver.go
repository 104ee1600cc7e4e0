package core

import (
	"context"
	"fmt"
	"math"
	"slices"

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
// The driver runs once per worker shard (comm.World.RunShards) and owns
// every collective of the solve. Between two collectives it makes one pass
// over the shard's ranks (loop.resume), in which each rank does exactly the
// work it has up to the next collective: the per-rank items the driver
// queued (an advance, a checkpoint, a residual recomputation, …), then its
// step — the recurrence's local stages, split at their halo exchanges —
// continuing straight into the next step when one ends with nothing to
// reduce. So ChronGear's advance(k) runs fused with iteration k+1's
// preconditioner and dots, and P-CSI's residual with the next Stiefel step,
// in one sweep over the shard's data, just as a rank program ran them.
//
// One step:
//
//	local    rank-local work up to the step's reduction → partial sums,
//	         stage by stage around the step's halo exchanges
//	reduce   the sums, plus the tail when the step carries a check
//	         (skipped when there is nothing to reduce: P-CSI between checks)
//	check    crash / convergence / NaN / tripwire / drift watch / the
//	         recurrence's own observe → one verdict
//	advance  the recurrence consumes the reduced sums
//
// Every decision of the check ladder is a function of reduced values, so
// the driver makes it once per shard and every shard makes the same one:
// the collectives behind it (confirmation, rollback, replacement) are
// entered in lockstep. Its resilient half — retry, checkpoint,
// confirmation, rollback, tripwire — runs only under an active fault
// injector (resilient.go); without one a solve is bitwise what it was
// before fault injection existed.

// recurrence is one method's iteration body: per-rank hooks, each taking the
// rank's loop for the rank handle, the shared fields (l.x, l.b, l.rr) and
// the iteration counter l.k. A hook never communicates. One that needs a
// halo exchange is split at it into stages: stage st returns the field set
// whose halos must be fresh before stage st+1 runs, nil once it is done.
type recurrence interface {
	// bind fetches the recurrence's own fields from the session arena and
	// resets its scalars for a new solve.
	bind(l *loop)
	// begin runs once, with r₀ = b − A·x₀ in l.rr: whatever the first step
	// expects beyond r₀.
	begin(l *loop, st int) [][]float64
	// local does stage st of the rank-local part of one step. Its last stage
	// writes the rank's partial sums into p (shape.width entries) and
	// reports whether the step carries a convergence check and, if so, the
	// rank's local ‖r‖². It also counts: a per-iteration method counts its
	// iteration here (POP's convention: the check at iteration k sees the
	// residual entering it), s-step counts a block's s iterations once the
	// block is applied or discarded.
	local(l *loop, st int, p []float64) (halo [][]float64, check bool, rn2 float64)
	// observe runs on a check the driver itself found nothing wrong with:
	// the recurrence's scalar guards, on its reduced sums g and the reduced
	// ‖r‖. Whatever it computes must derive from reduced values only, so
	// every rank returns the same verdict.
	observe(l *loop, g []float64, rn float64) verdict
	// advance consumes the reduced sums g and finishes the step.
	advance(l *loop, g []float64)
	// restart is called when the step in flight is discarded and l.rr has
	// just been recomputed from l.x (rollback, failed confirmation,
	// replacement): drop directions and scalars so the next step starts the
	// way the first one did.
	restart(l *loop, st int) [][]float64
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
	// drift watch answers with one residual replacement and stops the solve
	// when that did not help either (s-step: its floor is set by the basis
	// conditioning, not by the drift).
	drift bool
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

// solveRun is the state of one solve that every shard shares. Shard 0 alone
// writes the outcome fields; they are read after RunShards returns.
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

// loop is one rank's share of a solve: its fields, its recurrence, and where
// the last pass left it. It lives in rankState and owns the recurrences the
// rank has run, so a solve allocates nothing per rank.
type loop struct {
	s    *Session
	r    *comm.Rank
	rs   *rankState
	d    *driver
	sr   *solveRun
	recs [MethodSStep + 1]recurrence
	rec  recurrence

	x, b, rr [][]float64 // iterate, right-hand side, residual
	ck       [][]float64 // checkpoint of x (resilient mode)
	pay      []float64   // reduction payload

	k       int     // iterations so far
	bn2     float64 // local ‖b‖², until it has been reduced
	crashed bool    // the fault injector crashed this rank at this check

	// What the last pass ended on (resume): the cursor into the driver's
	// queue and the step's next stage, and the collective asked for — an
	// exchange of halo, or a reduction of pay[:n] (check: the step's).
	qi, qst, st int
	halo        [][]float64
	n           int
	check       bool
}

// Per-rank work the driver queues for the next pass, run on every rank in
// queue order (loop.item).
const (
	qInit       = iota // scatter, bind, r₀ = b − A·x₀ and the local ‖b‖²
	qBegin             // the recurrence's begin
	qCheckpoint        // ck = x (arg 1: record the iteration)
	qResidual          // the check's residual point on the traces
	qZeroX             // x = 0: a zero right-hand side's exact answer (arg 1: a crashed rank's lost iterate)
	qRestore           // x = ck
	qRecompute         // r = b − A·x on fresh halos
	qConfirm           // ⟨r, r⟩ for the confirmation reduction
	qRestart           // the recurrence's restart
	qRecovered         // a recovery point event (arg: its kind)
	qAdvance           // the recurrence consumes the reduced sums
	qGather            // the rank's blocks of x into the solution
)

// item is one queued piece of per-rank work.
type item struct{ kind, arg int }

// driver is one shard's Krylov driver: its ranks' loops, the shard-level
// state of the check ladder (every field a function of reduced values, so
// identical on every shard) and the queue of per-rank work for the next
// pass. Kept on the Session per shard and reused across solves.
type driver struct {
	s  *Session
	sh *comm.Shard
	sr *solveRun

	ls    []*loop
	pays  [][]float64   // the ranks' payloads of the reduction in flight
	halos [][][]float64 // the ranks' field sets of the exchange in flight
	g     []float64     // the last reduction's result

	q        []item
	qi, qst  int  // the next pass starts at q[qi], stage qst
	st       int  // and then the step in flight at stage st
	stepping bool // a drained queue continues into the step
	rel      float64

	bnorm, target float64
	pending       bool // ‖b‖² rides and has not been reduced yet
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
		sr.trace.EigBounds = slices.Clone(s.EigTrace)
	}
	// Checks record into the session's history buffer, sized for MaxIters
	// once, so no check allocates; the Result gets an exact-length copy
	// (one slot for a solve that made no check, so every solve allocates
	// its history once).
	if n := o.MaxIters/sr.sh.span + 1; cap(s.resBuf) < n {
		s.resBuf = make([]ResidualPoint, 0, n)
	}
	sr.trace.Residuals = s.resBuf[:0]

	if p := s.W.EffectiveThreads(); len(s.drivers) != p {
		s.drivers = make([]*driver, p)
	}
	st := s.W.RunShards(func(sh *comm.Shard) { s.driver(sh, sr).run() })
	// The drivers outlive the solve; its run (the caller's b, x0 and ctx)
	// must not.
	for _, d := range s.drivers {
		d.sr = nil
		for _, l := range d.ls {
			l.sr = nil
		}
	}

	hist := sr.trace.Residuals
	s.resBuf = hist[:0]
	sr.trace.Residuals = make([]ResidualPoint, len(hist), max(len(hist), 1))
	copy(sr.trace.Residuals, hist)
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
	// Every other exit stopped short of Tol: MaxIters, a NaN, divergence,
	// the drift watch's stop or a recurrence's dead end.
	nc := &NotConvergedError{Solver: spec.name, Iterations: res.Iterations, RelResidual: res.RelResidual}
	if spec.diverged != "" && (math.IsNaN(res.RelResidual) || res.RelResidual > 1e6) {
		return res, sr.out, fmt.Errorf("core: %s [%g, %g] may not bracket the spectrum: %w", spec.diverged, s.Nu, s.Mu, nc)
	}
	return res, sr.out, nc
}

// driver returns shard sh's driver for solve sr, built on the shard's first
// solve (and again when the thread count reshapes the shards).
func (s *Session) driver(sh *comm.Shard, sr *solveRun) *driver {
	d := s.drivers[sh.ID]
	if n := len(sh.Ranks); d == nil || len(d.ls) != n || d.ls[0] != &s.state(sh.Ranks[0]).loop {
		d = &driver{s: s, ls: make([]*loop, n), pays: make([][]float64, n), halos: make([][][]float64, n)}
		s.drivers[sh.ID] = d
	}
	d.sh, d.sr = sh, sr
	for i, r := range sh.Each {
		rs := s.state(r)
		l := &rs.loop
		l.s, l.r, l.rs, l.d, l.sr = s, r, rs, d, sr
		d.ls[i] = l
	}
	if n := sr.sh.width + 4; len(d.g) < n {
		d.g = make([]float64, n)
	}
	return d
}

// run is the shard program of a solve.
func (d *driver) run() {
	sr := d.sr
	d.q = append(d.q[:0], item{kind: qInit})
	d.qi, d.qst, d.st, d.stepping = 0, 0, 0, false
	d.restores, d.pending = 0, sr.sh.rides
	d.rearm()
	if !sr.sh.rides && !d.reduceRetry(d.collect()) { // ‖b‖² on its own
		return
	}
	converged := true // x = 0 solves a zero right-hand side exactly
	if sr.sh.rides || d.setNorm(d.g[0]) {
		d.push(item{kind: qBegin})
		if sr.resilient {
			d.push(item{kind: qCheckpoint}) // the initial checkpoint
		}
		converged = d.iterate()
	}
	d.stepping = false
	d.push(item{kind: qGather})
	d.collect()
	if d.lead() {
		sr.res.Iterations = d.ls[0].k
		sr.res.Converged = converged
	}
}

// lead reports whether this shard holds rank 0, which alone writes the
// solve's outcome.
func (d *driver) lead() bool { return d.sh.ID == 0 }

// push queues per-rank work for the next pass.
func (d *driver) push(its ...item) { d.q = append(d.q, its...) }

// collect makes passes over the shard, performing the halo exchanges the
// ranks ask for between them, until the ranks ask for a reduction: it
// returns the reduction's width, or 0 when the queue and (while stepping)
// the iteration budget are exhausted.
func (d *driver) collect() int {
	for {
		for i := range d.sh.Each {
			d.ls[i].resume()
		}
		l := d.ls[0] // every rank stopped at the same point
		d.qi, d.qst, d.st = l.qi, l.qst, l.st
		if l.halo == nil {
			if d.qi == len(d.q) {
				d.q, d.qi = d.q[:0], 0
			}
			return l.n
		}
		for i, l := range d.ls {
			d.halos[i] = l.halo
		}
		d.sh.Exchange(d.halos)
	}
}

// setNorm records the reduced ‖b‖² and reports whether there is anything to
// iterate on; if not it queues the exact answer x = 0.
func (d *driver) setNorm(bn2 float64) bool {
	d.bnorm = math.Sqrt(bn2)
	d.target = d.s.Opts.Tol * d.bnorm
	if d.lead() {
		d.sr.res.BNorm = d.bnorm
	}
	if d.bnorm == 0 {
		d.push(item{kind: qZeroX})
	}
	return d.bnorm != 0
}

// iterate is the one iteration loop; it reports whether the solve converged.
func (d *driver) iterate() bool {
	sr, sh, o := d.sr, d.sr.sh, d.s.Opts
	w := sh.width
	d.stepping = true
	for {
		n := d.collect()
		if n == 0 {
			return false // out of iterations
		}
		if !d.reduceRetry(n) {
			return false
		}
		if !d.ls[0].check {
			d.push(item{kind: qAdvance})
			continue
		}

		g := d.g
		rn, cancelled := math.Sqrt(g[w]), g[w+1] != 0
		if d.pending {
			d.pending = false
			if !d.setNorm(g[n-1]) {
				return true
			}
		}
		d.rel = rn / d.bnorm
		if d.lead() {
			sr.res.RelResidual = d.rel
		}
		d.push(item{kind: qResidual})

		v := proceed
		switch {
		case sr.resilient && g[w+2] != 0:
			// A rank crashed this interval and its iterate is lost. The crash
			// preempts a simultaneous convergence verdict: roll back first
			// and re-prove convergence from the restored state.
			d.push(item{kind: qZeroX, arg: 1})
			v = restore
		case rn <= d.target:
			if !sr.resilient {
				return true
			}
			// Confirm on fresh halos before trusting the verdict: a dropped
			// halo leaves a stale residual that can fake it.
			d.push(item{kind: qRecompute}, item{kind: qConfirm})
			if !d.reduceRetry(d.collect()) {
				return false
			}
			crn := math.Sqrt(d.g[0])
			if crn <= d.target {
				if d.lead() {
					sr.res.RelResidual = crn / d.bnorm
				}
				return true
			}
			if !math.IsNaN(crn) {
				// False convergence: l.rr was just recomputed, carry on from
				// the current iterate.
				d.push(item{kind: qRestart})
				d.rearm()
				d.recovered(recKindReconverge)
				continue
			}
			v = restore
		case math.IsNaN(rn): // reduced, so every shard leaves or rolls back here
			if !sr.resilient {
				return false
			}
			v = restore
		case sr.resilient && sh.recursive:
			v = d.tripwire(rn)
		}
		if cancelled { // some rank saw ctx done — all shards stop here
			if d.lead() {
				sr.cancelled = true
			}
			return false
		}
		if v <= hold && sh.drift {
			v = max(v, d.driftWatch(rn))
		}
		if v <= hold {
			v = max(v, d.observe(rn))
		}
		if v == stop && sr.resilient {
			v = restore // under an injector a dead end is a fault to recover from
		}
		switch v {
		case stop:
			return false
		case restore:
			if d.restores++; d.restores > o.MaxRecoveries {
				d.surrender()
				return false
			}
			d.push(item{kind: qRestore})
			d.rearm()
			d.recovered(recKindRestore)
			fallthrough
		case replace:
			// Discard the step in flight and restart the recurrence from an
			// honestly recomputed residual.
			d.push(item{kind: qRecompute}, item{kind: qRestart})
			continue
		case proceed:
			if sr.resilient {
				d.push(item{kind: qCheckpoint, arg: 1}) // free in the cost model: a node-local copy
			}
		}
		d.push(item{kind: qAdvance})
	}
}

// observe runs the recurrence's guards on every rank — each updates its own
// recurrence — and returns their verdict, the same on all of them.
func (d *driver) observe(rn float64) verdict {
	g := d.g[:d.sr.sh.width]
	v := proceed
	for i := range d.sh.Each {
		if vi := d.ls[i].rec.observe(d.ls[i], g, rn); i == 0 {
			v = vi
		}
	}
	return v
}

// reduceRetry is the one way a running solve enters a global reduction, of
// the ranks' pay[:n]; the result lands in d.g (a copy — the communicator's
// buffer is valid only until the next collective). In resilient mode a
// reduction the injector failed — a verdict every rank shares — is
// re-entered after a bounded exponential backoff on the virtual clock, up to
// reduceRetryLimit times; past that the solve surrenders and reduceRetry
// reports false.
func (d *driver) reduceRetry(n int) bool {
	sh, sr := d.sh, d.sr
	for i, l := range d.ls {
		d.pays[i] = l.pay[:n]
	}
	g := sh.AllReduce(d.pays)
	retries := 0
	for ; sr.resilient && sh.Ranks[0].ReduceFailed() && retries < reduceRetryLimit; retries++ {
		for _, r := range sh.Each {
			r.AddDelay(reduceBackoffBase * float64(int64(2)<<retries))
		}
		g = sh.AllReduce(d.pays)
	}
	if d.lead() {
		sr.res.Recovery.ReduceRetries += retries
	}
	if sr.resilient && sh.Ranks[0].ReduceFailed() {
		d.surrender()
		return false
	}
	if retries > 0 {
		for _, r := range sh.Each {
			traceRecover(r, recKindReduceRetry, -1)
		}
		if d.lead() {
			sr.inj.Recovered("reduce-retry")
		}
	}
	copy(d.g, g)
	return true
}

// rearm resets the tripwire and the drift watch: new solve, rollback, failed
// confirmation — not a replacement, which the watch must remember.
func (d *driver) rearm() {
	d.best, d.stall = math.Inf(1), 0
	d.drift.best, d.drift.stall, d.drift.replaced = math.Inf(1), 0, false
}

// tripwire is resilient mode's silent-corruption guard: a dropped halo
// leaves a recursive residual quietly inconsistent with b − A·x, so the
// reduced norm stops improving without ever reaching the convergence
// verdict (where confirm would catch it). A stalled check is not
// checkpointed — the recursion may have walked x away since the last
// improvement — and cgStallChecks of them in a row roll back.
func (d *driver) tripwire(rn float64) verdict {
	if rn < 0.999*d.best {
		d.best, d.stall = rn, 0
		return proceed
	}
	d.stall++
	if d.stall >= cgStallChecks {
		return restore
	}
	return hold
}

// driftWatch answers recursive-residual drift with residual replacement
// (van der Vorst-style reliable updates). The s-step block recurrence
// drifts from b − A·x in finite precision and can plateau above the target;
// once the reduced residual is within driftFloor of ‖b‖, driftPatience
// iterations without a 1% improvement replace the residual by the true one
// and restart the recurrence from it: a halo exchange and a stencil sweep,
// no reduction. A second such stall after a replacement stops the solve.
func (d *driver) driftWatch(rn float64) verdict {
	dw, sh := &d.drift, d.sr.sh
	if rn < 0.99*dw.best {
		dw.best, dw.stall, dw.replaced = rn, 0, false
		return proceed
	}
	if rn > driftFloor*d.bnorm {
		return proceed
	}
	if dw.stall += sh.span; dw.stall < driftPatience {
		return proceed
	}
	if dw.replaced {
		return stop
	}
	dw.replaced, dw.stall = true, 0
	return replace
}

// recovered records one recovery action of the check ladder: a point event
// on every rank's trace (queued, so it lands after the work before it) and
// one count.
func (d *driver) recovered(kind int) {
	d.push(item{kind: qRecovered, arg: kind})
	if !d.lead() {
		return
	}
	rec := &d.sr.res.Recovery
	switch kind {
	case recKindRestore:
		rec.Restores++
		d.sr.inj.Recovered("restore")
	case recKindReconverge:
		rec.Reconverges++
		d.sr.inj.Recovered("reconverge")
	}
}

// surrender marks the solve as faulted beyond its recovery budget.
func (d *driver) surrender() {
	if d.lead() {
		d.sr.faulted = true
	}
}

// resume runs the rank from the driver's cursor to its next collective:
// the queued items first, then — while stepping — the step in flight,
// continuing into the next step when one ends with nothing to reduce. It
// leaves what it asks of the shard in l.halo (an exchange) or l.n (a
// reduction of l.pay[:n]), both empty when there is nothing left to do.
func (l *loop) resume() {
	d := l.d
	l.halo, l.n = nil, 0
	qi, st := d.qi, d.qst
	for ; qi < len(d.q); qi, st = qi+1, 0 {
		halo, n := l.item(d.q[qi], st)
		if halo != nil {
			l.halo, l.qi, l.qst = halo, qi, st+1
			return
		}
		if n > 0 {
			l.n, l.qi, l.qst, l.check = n, qi+1, 0, false
			return
		}
	}
	l.qi, l.qst = qi, 0
	if !d.stepping {
		return
	}
	w, maxIters := l.sr.sh.width, l.s.Opts.MaxIters
	for st = d.st; ; st = 0 {
		if st == 0 && l.k >= maxIters {
			l.st = 0
			return
		}
		halo, check, rn2 := l.rec.local(l, st, l.pay[:w])
		if halo != nil {
			l.halo, l.st = halo, st+1
			return
		}
		l.st = 0
		if n := l.tail(check, rn2); n > 0 {
			l.n, l.check = n, check
			return
		}
		l.rec.advance(l, nil) // nothing to reduce: P-CSI between checks
	}
}

// tail appends the check's tail to the step's partial sums and returns the
// payload width. The tail rides the step's reduction, so a check costs no
// communication of its own and every rank reads one verdict.
func (l *loop) tail(check bool, rn2 float64) int {
	sr, sh := l.sr, l.sr.sh
	n := sh.width
	if !check {
		return n
	}
	l.pay[n], l.pay[n+1] = rn2, cancelFlag(sr.ctx)
	n += 2
	if sr.resilient {
		l.crashed = sr.inj.CrashRank(l.r.ID, l.r.ReduceSeq())
		l.pay[n] = 0
		if l.crashed {
			l.pay[n] = 1
		}
		n++
	}
	if sh.rides {
		l.pay[n] = 0
		if l.d.pending {
			l.pay[n] = l.bn2
		}
		n++
	}
	return n
}

// item runs stage st of one queued piece of work on this rank; it returns
// the field set to exchange before the next stage, or the width of the
// reduction it asks for, or neither when it is done.
func (l *loop) item(it item, st int) (halo [][]float64, n int) {
	switch it.kind {
	case qInit:
		if l.start() {
			return nil, 1
		}
	case qBegin:
		return l.rec.begin(l, st), 0
	case qCheckpoint:
		copyFields(l.ck, l.x)
		if it.arg == 1 && l.r.ID == 0 {
			l.sr.res.Recovery.CheckpointIter = l.k
		}
	case qResidual:
		traceResidual(l.r, l.sr.trace, l.k, l.d.rel)
	case qZeroX:
		if it.arg == 0 || l.crashed {
			zeroFields(l.x)
		}
	case qRestore:
		copyFields(l.x, l.ck)
	case qRecompute:
		if st == 0 {
			return l.x, 0
		}
		l.residual()
	case qConfirm:
		l.pay[0] = stageDot(l.r, l.rs, l.rr, l.rr)
		return nil, 1
	case qRestart:
		return l.rec.restart(l, st), 0
	case qRecovered:
		traceRecover(l.r, it.arg, l.k)
	case qAdvance:
		l.rec.advance(l, l.d.g[:l.sr.sh.width])
	case qGather:
		l.s.gatherSolution(l.r, l.sr.out, l.x)
	}
	return nil, 0
}

// start is the rank's first work of a solve: scatter x₀ (or zero x for a
// nil x₀) and b, bind the recurrence, and r₀ = b − A·x₀ (halos valid from
// the scatter) with the local ‖b‖². It reports whether ‖b‖² is reduced on
// its own now.
func (l *loop) start() bool {
	s, r, sr := l.s, l.r, l.sr
	if sr.x0 == nil {
		l.x = s.zeroField(r, "x")
	} else {
		l.x = s.scatterMasked(r, s.field(r, "x"), sr.x0)
	}
	l.b = s.scatterMasked(r, s.field(r, "b"), sr.b)
	l.rr = s.field(r, "r")
	if sr.resilient {
		l.ck = s.field(r, "ckpt")
	}
	if l.recs[sr.m] == nil {
		l.recs[sr.m] = sr.spec.new()
	}
	l.rec = l.recs[sr.m]
	l.rec.bind(l)
	if n := sr.sh.width + 4; len(l.pay) < n {
		l.pay = make([]float64, n)
	}
	l.k = 0
	l.bn2 = stageInitResidual(r, l.rs, l.rr, l.b, l.x)
	if sr.sh.rides {
		return false
	}
	l.pay[0] = l.bn2
	return true
}

// residual sets r = b − A·x; x's halos must be fresh.
func (l *loop) residual() {
	for i, loc := range l.rs.locs {
		residual(loc, l.rr[i], l.b[i], l.x[i])
		l.r.AddFlops(9 * int64(loc.InteriorLen()))
	}
}

// traceRecover emits one recovery point event on the rank's trace.
func traceRecover(r *comm.Rank, kind, iter int) {
	if rt := r.Trace(); rt != nil {
		rt.Add(obs.Event{Name: obs.EvRecover, Point: true, T0: r.Clock(),
			Value: float64(kind), Iter: iter, Straggler: -1})
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
