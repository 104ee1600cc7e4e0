package serve

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// request is one queued solve; resp is buffered (size 1) so a worker can
// always deliver and move on even when the caller has abandoned the wait.
// The time.Time fields mark the request's phase boundaries: start (Solve
// entry) → enqueued (queue send; the gap is admission) → dequeued (worker
// pickup; the gap is queue wait) → solve start in runBatch (the gap is
// batch wait).
type request struct {
	ctx      context.Context
	req      Request
	key      Key
	resp     chan result
	traceID  uint64
	start    time.Time
	enqueued time.Time
	dequeued time.Time
}

type result struct {
	resp Response
	err  error
}

// gridEntry caches what sessions on one grid share: the grid itself
// (read-only during solves) and the operator's mass coefficient.
type gridEntry struct {
	g   *grid.Grid
	phi float64
}

func (s *Service) gridFor(name string) (*gridEntry, error) {
	s.gridMu.Lock()
	defer s.gridMu.Unlock()
	if ge := s.grids[name]; ge != nil {
		return ge, nil
	}
	g, err := grid.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("serve: %w: %w", err, core.ErrBadSpec)
	}
	ge := &gridEntry{g: g, phi: stencil.PhiFromTimeStep(cmp.Or(s.opts.Tau, g.Tau()))}
	s.grids[name] = ge
	return ge, nil
}

// keyPool owns the queue and warmed sessions for one Key. Each session is
// driven by exactly one worker goroutine, which is the whole concurrency
// contract: a core.Session never sees two solves at once.
type keyPool struct {
	svc   *Service
	key   Key
	queue chan *request

	buildMu  sync.Mutex
	built    int   // sessions successfully built
	growing  bool  // a background build is in flight
	buildErr error // sticky first-build failure, returned at admission
	gridN    int   // grid point count, for request validation
}

// ensureBuilt warms the pool's first session synchronously. Build failures
// stick: every subsequent request for this key gets the same error without
// re-attempting an expensive doomed build.
func (p *keyPool) ensureBuilt() error {
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	if p.built > 0 {
		return nil
	}
	if p.buildErr != nil {
		return p.buildErr
	}
	sess, slot, err := p.build()
	if err != nil {
		p.buildErr = err
		return err
	}
	p.gridN = sess.N()
	if !p.startWorker(sess, slot) {
		// The service closed while we were building; terminal, so stick.
		p.buildErr = ErrClosed
		return ErrClosed
	}
	p.built++
	return nil
}

func (p *keyPool) n() int {
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	return p.gridN
}

// build assembles and warms one session: decomposition, virtual world,
// preconditioner factorization, and (for Stiefel methods) the Lanczos
// eigenvalue bounds — everything a request would otherwise pay for on its
// first solve. The returned slot is the session's service-level registration
// (index, tracer, export lock).
func (p *keyPool) build() (*core.Session, *sessionSlot, error) {
	ge, err := p.svc.gridFor(p.key.Grid)
	if err != nil {
		return nil, nil, err
	}
	o := p.svc.opts
	opts := o.Solver
	opts.Precond = p.key.Precond

	var tracer *obs.Tracer
	if o.TraceCapacity > 0 {
		tracer = obs.NewTracer(o.TraceCapacity)
	}
	machine, err := perfmodel.ByName(o.MachineName)
	if err != nil {
		return nil, nil, err
	}
	sess, err := core.BuildSession(ge.g, ge.phi, o.Cores, o.Threads, machine, tracer, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := sess.Setup(); err != nil {
		return nil, nil, err
	}
	if p.key.Method == core.MethodPCSI || p.key.Method == core.MethodSStep {
		if _, _, _, err := sess.EstimateEigenvalues(nil, 0); err != nil {
			return nil, nil, err
		}
	}
	slot := p.svc.registerSession(p.key, tracer, sess.W.NRank)
	p.svc.sessCount.Add(1)
	return sess, slot, nil
}

// startWorker registers a worker under the service read lock so it can
// never race Close's wg.Wait: either the worker starts before Close flips
// closed, or the freshly built session is discarded.
func (p *keyPool) startWorker(sess *core.Session, slot *sessionSlot) bool {
	s := p.svc
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	go p.worker(sess, slot)
	return true
}

// maybeGrow warms one more session in the background when the queue has a
// backlog and the key has headroom. At most one build is in flight per key.
func (p *keyPool) maybeGrow() {
	p.buildMu.Lock()
	if p.growing || p.buildErr != nil || p.built == 0 || p.built >= p.svc.opts.MaxSessionsPerKey {
		p.buildMu.Unlock()
		return
	}
	p.growing = true
	p.buildMu.Unlock()
	go func() {
		sess, slot, err := p.build()
		p.buildMu.Lock()
		defer p.buildMu.Unlock()
		p.growing = false
		if err == nil && p.startWorker(sess, slot) {
			p.built++
		}
	}()
}

// worker drives one session: pull a request, coalesce stragglers into a
// batch, run the batch back-to-back on the session. When Close closes the
// queue the worker finishes the remaining buffered requests before exiting
// — that is the graceful drain.
func (p *keyPool) worker(sess *core.Session, slot *sessionSlot) {
	defer p.svc.wg.Done()
	batch := make([]*request, 0, p.svc.opts.MaxBatch)
	for {
		first, ok := <-p.queue
		if !ok {
			return
		}
		first.dequeued = time.Now()
		batch = append(batch[:0], first)
		p.fill(&batch)
		// slot.mu serializes the batch against Perfetto export (the rank
		// rings are single-writer and unsynchronized).
		slot.mu.Lock()
		p.runBatch(sess, slot, batch)
		slot.mu.Unlock()
	}
}

// fill coalesces queued requests into the batch with a non-blocking greedy
// drain: a batch forms whenever a backlog exists, and nothing is held open
// waiting for one — a batch's members run back-to-back on one session, so a
// hold would cost every request its length and amortise nothing.
func (p *keyPool) fill(batch *[]*request) {
	max := p.svc.opts.MaxBatch
	for len(*batch) < max {
		select {
		case r, ok := <-p.queue:
			if !ok {
				return
			}
			r.dequeued = time.Now()
			*batch = append(*batch, r)
		default:
			return
		}
	}
}

// runBatch executes one session checkout. Requests whose context is already
// done are skipped (their spot in the checkout is not wasted on a doomed
// solve); live ones run with their own context so a deadline can still stop
// a solve at its next convergence check.
//
// Every finished request — solved, errored, or expired — leaves a
// RequestRecord in the flight recorder.
func (p *keyPool) runBatch(sess *core.Session, slot *sessionSlot, batch []*request) {
	m := &p.svc.m
	m.batches.Inc()
	m.batchSize.Observe(float64(len(batch)))
	for _, r := range batch {
		m.queueWait.Observe(time.Since(r.enqueued).Seconds())
		rec := obs.RequestRecord{
			TraceID:     r.traceID,
			Key:         r.key.String(),
			Session:     slot.idx,
			StartUnixNS: r.start.UnixNano(),
			AdmitNS:     r.enqueued.Sub(r.start).Nanoseconds(),
			QueueNS:     r.dequeued.Sub(r.enqueued).Nanoseconds(),
			Ranks:       slot.ranks,
			Shard:       -1, // the fleet layer stamps real shards on its own records
		}
		if r.ctx.Err() != nil {
			m.expired.Inc()
			err := fmt.Errorf("serve: expired in queue: %w", context.Cause(r.ctx))
			rec.Error = err.Error()
			rec.TotalNS = time.Since(r.start).Nanoseconds()
			p.svc.flight.Note(rec)
			r.resp <- result{err: err}
			continue
		}
		solveStart := time.Now()
		rec.BatchWaitNS = solveStart.Sub(r.dequeued).Nanoseconds()
		res, x, err := p.solveOnce(sess, r)
		rec.SolveNS = time.Since(solveStart).Nanoseconds()
		rec.Iterations = res.Iterations
		rec.Converged = res.Converged
		mc := res.Stats.MeanCounters()
		rec.VCompMean = mc.TComp
		rec.VHaloMean = mc.THalo
		rec.VReduceMean = mc.TReduce
		rec.VClockMax = res.Stats.MaxClock
		if err != nil {
			rec.Error = err.Error()
		}
		rec.TotalNS = time.Since(r.start).Nanoseconds()
		p.svc.flight.Note(rec)
		if err != nil {
			m.errors.Inc()
			r.resp <- result{err: err}
			continue
		}
		// x is the session's reusable arena; the response owns a copy.
		xc := make([]float64, len(x))
		copy(xc, x)
		r.resp <- result{resp: Response{Result: res, X: xc, TraceID: r.traceID}}
	}
}

// solveOnce runs one request on the session. The request's context carries
// its trace ID, which the solve's rank-level spans adopt.
func (p *keyPool) solveOnce(sess *core.Session, r *request) (core.Result, []float64, error) {
	res, x, err := sess.SolveContext(r.ctx, r.key.Method, r.req.B, r.req.X0)
	p.svc.m.solves.Inc()
	return res, x, err
}
