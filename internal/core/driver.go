package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
)

// The Krylov driver. The paper's Algorithms 1 and 2 differ only in the body
// of an iteration; everything around that body is written once, here:
// scatter, r₀ = b − A·x₀, ‖b‖ and the zero right-hand-side exit, the
// [‖r‖², cancel] tail that rides a step's reduction on a check, the
// residual trace, the NaN exit, the convergence verdict, residual
// replacement, the true residual of a solve that ran out of iterations,
// gather, and the one mapping of how a solve ended onto ctx /
// *NotConvergedError. A method is a recurrence — the hooks below — plus one
// row of the methods table (method.go); the driver never asks which method
// it is running.
//
// The driver runs once per worker shard (comm.World.RunShards) and owns
// every collective of the solve. Between two collectives it makes one pass
// over the shard's ranks (loop.resume), in which each rank does exactly the
// work it has up to the next collective: the per-rank items the driver
// queued (an advance, a residual recomputation, …), then its step — the
// recurrence's local stages, split at their halo exchanges — continuing
// straight into the next step when one ends with nothing to reduce. So ChronGear's advance(k) runs fused with iteration k+1's
// preconditioner and dots, and P-CSI's residual with the next Stiefel step,
// in one sweep over the shard's data, just as a rank program ran them.
//
// One step:
//
//	local    rank-local work up to the step's reduction → partial sums,
//	         stage by stage around the step's halo exchanges
//	reduce   the sums, plus the tail when the step carries a check
//	         (skipped when there is nothing to reduce: P-CSI between checks)
//	check    convergence / NaN / cancel / drift watch / the recurrence's
//	         own observe → one verdict
//	advance  the recurrence consumes the reduced sums
//
// Every decision of the check ladder is a function of reduced values, so
// the driver makes it once per shard and every shard makes the same one:
// the collectives behind it (replacement, the capped solve's residual) are
// entered in lockstep.

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
	// just been recomputed from l.x (replacement): drop directions and
	// scalars so the next step starts the way the first one did.
	restart(l *loop, st int) [][]float64
}

// shape is what the driver needs to know about a method's step, as data.
type shape struct {
	width int // partial sums the recurrence reduces per step (0: none between checks)
	span  int // iterations between convergence checks
	// rides: ‖b‖² rides the first step's reduction instead of paying its own.
	rides bool
	// recursive: a check reduces a residual maintained by recursion, not
	// b − A·x of the iterate the solve returns, so a solve that runs out of
	// iterations recomputes it (driver.capped).
	recursive bool
	// drift: the recursion drifts from b − A·x near the round-off floor; the
	// drift watch answers with one residual replacement and stops the solve
	// when that did not help either (s-step: its floor is set by the basis
	// conditioning, not by the drift).
	drift bool
}

// verdict is what a convergence check decides about the step that carried
// it; the recurrence's guards speak only when the drift watch said proceed.
type verdict int

const (
	proceed verdict = iota // advance
	replace                // recompute r = b − A·x on fresh halos, restart the recurrence
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
	ctx   context.Context
	m     Method
	spec  *methodSpec
	sh    shape
	b, x0 []float64
	out   []float64

	res       Result
	trace     *SolveTrace
	cancelled bool
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
	pay      []float64   // reduction payload

	k   int     // iterations so far
	bn2 float64 // local ‖b‖², until it has been reduced

	// What the last pass ended on (resume): the cursor into the driver's
	// queue and the step's next stage, and the collective asked for — an
	// exchange of halo, or a reduction of pay[:n] (check: the step's).
	qi, qst, st int
	halo        [][]float64
	n           int
	check       bool
}

// item is one piece of per-rank work the driver queues for the next pass,
// run on every rank in queue order (loop.item).
type item int

const (
	qInit      item = iota // scatter, bind, r₀ = b − A·x₀ and the local ‖b‖²
	qBegin                 // the recurrence's begin
	qResidual              // the check's residual point on the traces
	qZeroX                 // x = 0: a zero right-hand side's exact answer
	qRecompute             // r = b − A·x on fresh halos
	qNorm                  // ⟨r, r⟩, and the local ‖b‖² while it rides, for a capped solve
	qRestart               // the recurrence's restart
	qAdvance               // the recurrence consumes the reduced sums
	qGather                // the rank's blocks of x into the solution
)

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
	checked  int // the iteration of the last check (-1: none yet)

	bnorm, target float64
	pending       bool // ‖b‖² rides and has not been reduced yet

	drift struct { // drift watch: best reduced ‖r‖ near the floor, iterations since
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
		trace: &SolveTrace{}, res: Result{Solver: spec.name, Precond: o.Precond}}
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
	if n := sr.sh.width + 3; len(d.g) < n {
		d.g = make([]float64, n)
	}
	return d
}

// run is the shard program of a solve.
func (d *driver) run() {
	sr := d.sr
	d.q = append(d.q[:0], qInit)
	d.qi, d.qst, d.st, d.stepping = 0, 0, 0, false
	d.checked, d.pending = -1, sr.sh.rides
	d.drift.best, d.drift.stall, d.drift.replaced = math.Inf(1), 0, false
	if !sr.sh.rides {
		d.reduce(d.collect()) // ‖b‖² on its own
	}
	converged := true // x = 0 solves a zero right-hand side exactly
	if sr.sh.rides || d.setNorm(d.g[0]) {
		d.push(qBegin)
		converged = d.iterate()
	}
	d.stepping = false
	d.push(qGather)
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
		d.push(qZeroX)
	}
	return d.bnorm != 0
}

// iterate is the one iteration loop; it reports whether the solve converged.
func (d *driver) iterate() bool {
	sr, sh := d.sr, d.sr.sh
	w := sh.width
	d.stepping = true
	for {
		n := d.collect()
		if n == 0 {
			return d.capped() // out of iterations
		}
		d.reduce(n)
		if !d.ls[0].check {
			d.push(qAdvance)
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
		d.rel, d.checked = rn/d.bnorm, d.ls[0].k
		if d.lead() {
			sr.res.RelResidual = d.rel
		}
		d.push(qResidual)

		switch {
		case rn <= d.target:
			return true
		case math.IsNaN(rn): // reduced, so every shard leaves here
			return false
		case cancelled: // some rank saw ctx done — all shards stop here
			if d.lead() {
				sr.cancelled = true
			}
			return false
		}
		v := proceed
		if sh.drift {
			v = d.driftWatch(rn)
		}
		if v == proceed {
			v = d.observe(rn)
		}
		switch v {
		case stop:
			return false
		case replace:
			// Discard the step in flight and restart the recurrence from an
			// honestly recomputed residual.
			d.push(qRecompute, qRestart)
			continue
		}
		d.push(qAdvance)
	}
}

// capped ends a solve that ran out of iterations, so that it reports the
// relative residual of the x it returns. The last check's is that only when
// the method recomputes its residual from x and the check came at the last
// iteration (P-CSI with MaxIters a multiple of CheckEvery); otherwise — a
// recursive residual, iterations after the check, or no check at all — one
// halo exchange and one reduction recompute it, with ‖b‖² in the same
// reduction while it still rides.
func (d *driver) capped() bool {
	if !d.sr.sh.recursive && d.checked == d.ls[0].k {
		return false
	}
	d.push(qRecompute, qNorm)
	d.reduce(d.collect())
	if d.pending {
		d.pending = false
		if !d.setNorm(d.g[1]) {
			return true
		}
	}
	if d.lead() {
		d.sr.res.RelResidual = math.Sqrt(d.g[0]) / d.bnorm
	}
	return false
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

// reduce is the one way a running solve enters a global reduction, of the
// ranks' pay[:n]; the result lands in d.g (a copy — the communicator's
// buffer is valid only until the next collective).
func (d *driver) reduce(n int) {
	for i, l := range d.ls {
		d.pays[i] = l.pay[:n]
	}
	copy(d.g, d.sh.AllReduce(d.pays))
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
	switch it {
	case qInit:
		if l.start() {
			return nil, 1
		}
	case qBegin:
		return l.rec.begin(l, st), 0
	case qResidual:
		traceResidual(l.r, l.sr.trace, l.k, l.d.rel)
	case qZeroX:
		zeroFields(l.x)
	case qRecompute:
		if st == 0 {
			return l.x, 0
		}
		l.residual()
	case qNorm:
		l.pay[0] = stageDot(l.r, l.rs, l.rr, l.rr)
		if !l.d.pending {
			return nil, 1
		}
		l.pay[1] = l.bn2
		return nil, 2
	case qRestart:
		return l.rec.restart(l, st), 0
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
	if l.recs[sr.m] == nil {
		l.recs[sr.m] = sr.spec.new()
	}
	l.rec = l.recs[sr.m]
	l.rec.bind(l)
	if n := sr.sh.width + 3; len(l.pay) < n {
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
