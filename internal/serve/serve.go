// Package serve is the concurrent solve service: a pool of warmed-up solver
// sessions (operator assembled, preconditioner factored, eigenvalue bounds
// cached) serving Solve requests from many goroutines at once.
//
// A core.Session is deliberately not safe for concurrent use — its field
// arenas and output buffer are reused across solves — so the service owns
// the concurrency story instead: sessions live in per-key pools and each is
// driven by exactly one worker goroutine. Requests that share a session are
// coalesced into batches of back-to-back solves on one checkout, and a
// bounded queue with load shedding keeps the service responsive under
// overload instead of letting latency grow without bound.
//
// Determinism survives pooling: every solve runs fresh shard programs on
// its session's virtual machine, so a solve's residual history depends only
// on (grid, method, preconditioner, rhs) — never on which pooled session ran
// it or what that session solved before. Concurrent pooled solves are
// bitwise-identical to serial ones.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/obs"
)

// Typed admission errors, matchable with errors.Is.
var (
	// ErrOverloaded reports a request shed because the key's queue was
	// full. The caller may retry with backoff; the service never blocks
	// admission on a full queue.
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrClosed reports a request rejected because the service is
	// draining or closed.
	ErrClosed = errors.New("serve: service closed")
)

// Options configures a Service. The zero value serves the default grid set
// with modest pooling; all limits have working defaults.
type Options struct {
	// Cores is the virtual rank count per session (0 = one rank per block).
	Cores int
	// Tau is the barotropic time step for the operator's mass term
	// (default 1920 s).
	Tau float64
	// MachineName prices virtual time ("" = free, the serving default).
	MachineName string
	// Threads caps how many virtual ranks per session run concurrently on
	// real cores (comm.World.SetThreads): 0 = GOMAXPROCS at build time.
	// Solves stay bitwise identical across settings; only wall-clock and
	// scheduling pressure change.
	Threads int
	// Solver carries the remaining solver knobs (tolerance, EVP block
	// size, Lanczos controls). Precond is overwritten per request.
	Solver core.Options

	// MaxSessionsPerKey bounds warmed sessions (= worker goroutines) per
	// (grid, method, precond) key; default 2.
	MaxSessionsPerKey int
	// MaxQueue bounds the per-key request queue; a full queue sheds with
	// ErrOverloaded. Default 64.
	MaxQueue int
	// MaxBatch caps how many requests one worker coalesces into a single
	// session checkout. Default 8.
	MaxBatch int

	// Registry receives the serve_* metrics; nil creates a private one.
	Registry *obs.Registry

	// Injector, when non-nil, is wired into every session's communication
	// world: solves run under deterministic fault injection, which is what
	// arms core.Session.SolveResilient's ladder and the one request retry
	// (retryBudget). Nil (the default) leaves the solve path bitwise
	// identical to a service that never heard of fault injection.
	Injector *faults.Injector

	// TraceCapacity, when > 0, attaches a tracer to every session's world
	// retaining this many events per rank, enabling request-scoped span
	// trees and Perfetto export (WritePerfetto). 0 (the default) disables
	// rank-level tracing; request records still flow to the flight recorder.
	TraceCapacity int
	// FlightRing sizes the always-on flight recorder's ring of recent
	// request records (0 = obs.DefaultFlightRing).
	FlightRing int
	// FlightDir is the directory flight-recorder incident dumps are written
	// to when a trigger fires (fault beyond the retry, SLO breach). "" keeps
	// the recorder purely in-memory: no files are written.
	FlightDir string
	// LatencySLO, when > 0, is the per-request latency objective; a request
	// finishing slower triggers a flight-recorder dump with reason
	// "slo_breach". 0 disables the SLO trigger.
	LatencySLO time.Duration
}

func (o Options) withDefaults() Options {
	if o.Tau == 0 {
		o.Tau = 1920
	}
	if o.MaxSessionsPerKey == 0 {
		o.MaxSessionsPerKey = 2
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 8
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Key identifies a session pool: requests with equal keys share warmed
// sessions. MethodCSI is normalized to MethodPCSI + PrecondIdentity before
// keying, so "csi" and "pcsi/none" requests share a pool.
type Key struct {
	// Grid is the resolved preset name.
	Grid string
	// Method is the normalized solver algorithm.
	Method core.Method
	// Precond is the normalized preconditioner.
	Precond core.PrecondType
	// SStep is the s-step block size, set only for MethodSStep (normalize
	// zeroes it for every other method and defaults it to
	// core.DefaultSStep for sstep) — sessions with different block sizes
	// have different field arenas and different numerics, so they never
	// share a pool.
	SStep int
}

// String renders the key for metric labels: "test/pcsi/evp". s-step keys
// append an "s4"-style segment so the other methods' labels stay stable.
func (k Key) String() string {
	s := k.Grid + "/" + k.Method.String() + "/" + k.Precond.String()
	if k.Method == core.MethodSStep {
		s += fmt.Sprintf("/s%d", k.SStep)
	}
	return s
}

// Request is one solve submission.
type Request struct {
	// Grid names the preset the service should solve on ("test", "1deg", ...).
	Grid string
	// Method selects the solver algorithm; the zero value is ChronGear,
	// POP's production solver.
	Method core.Method
	// Precond selects the preconditioner; the zero value is diagonal,
	// POP's default.
	Precond core.PrecondType
	// SStep is the s-step block size for MethodSStep requests (0 =
	// core.DefaultSStep; valid 1..core.MaxSStep). Ignored — and normalized
	// to 0 in the session key — for every other method.
	SStep int
	// B is the right-hand side (length = grid N). X0 is the initial guess
	// (nil = zero).
	B, X0 []float64
}

// Response is one completed solve. X is the caller's copy of the solution —
// unlike core.Session solves, it is not invalidated by later requests.
type Response struct {
	// Result summarizes the solve (iterations, convergence, recovery
	// counts, virtual-time statistics).
	Result core.Result
	// X is the solution vector (length = grid N).
	X []float64
	// TraceID is the request's trace ID: the key correlating this response
	// with its rank-level spans in a Perfetto export and its record in the
	// flight recorder.
	TraceID uint64
}

// Stats is a point-in-time snapshot of the service counters — the wire
// struct itself, so /v1/stats and the fleet's aggregation carry a snapshot
// without a field-by-field copy.
type Stats = api.ServiceCounters

// Service is the concurrent solve front end. Create with New, submit with
// Solve from any number of goroutines, stop with Close.
type Service struct {
	opts Options

	// mu guards closed and pools. Queue sends happen under the read lock,
	// Close closes queues under the write lock — so a send can never race
	// a close.
	mu     sync.RWMutex
	closed bool
	pools  map[Key]*keyPool

	gridMu sync.Mutex
	grids  map[string]*gridEntry

	wg        sync.WaitGroup // worker goroutines
	sessCount atomic.Int64   // sessions built across all keys

	// flight is the always-on black box: every finished request's span
	// summary lands in its ring, and incident triggers dump it.
	flight *obs.FlightRecorder

	// sessMu guards sess, the registry of built sessions in build order —
	// the stable session indices Perfetto export and request records use.
	sessMu sync.Mutex
	sess   []*sessionSlot

	m metrics
}

// sessionSlot is the service-level record of one built session. mu
// serializes solving against trace export: a worker holds it for the length
// of one batch, WritePerfetto holds it while snapshotting the session's
// rings (the per-rank ring buffers are single-writer with no internal
// synchronization, so an export racing a solve would read torn events).
type sessionSlot struct {
	idx    int
	key    Key
	tracer *obs.Tracer
	ranks  int
	mu     sync.Mutex
}

// registerSession appends a slot and returns it; idx is its build order.
func (s *Service) registerSession(key Key, tr *obs.Tracer, ranks int) *sessionSlot {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sl := &sessionSlot{idx: len(s.sess), key: key, tracer: tr, ranks: ranks}
	s.sess = append(s.sess, sl)
	return sl
}

type metrics struct {
	requests   *obs.Counter
	shed       *obs.Counter
	expired    *obs.Counter
	solves     *obs.Counter
	batches    *obs.Counter
	errors     *obs.Counter
	retried    *obs.Counter
	faulted    *obs.Counter
	recovered  *obs.Counter
	sessions   *obs.Gauge
	queueMax   *obs.Gauge
	queueDepth *obs.Gauge
	latency    *obs.Histogram
	queueWait  *obs.Histogram
	batchSize  *obs.Histogram
}

// New builds a Service. No sessions are warmed until the first request for
// each key arrives (warm-up is synchronous on that first request, so
// configuration errors surface at the caller).
func New(opts Options) *Service {
	o := opts.withDefaults()
	r := o.Registry
	s := &Service{
		opts:  o,
		pools: make(map[Key]*keyPool),
		grids: make(map[string]*gridEntry),
		m: metrics{
			requests:  r.Counter("serve_requests_total", "solve admissions attempted"),
			shed:      r.Counter("serve_shed_total", "requests shed with ErrOverloaded"),
			expired:   r.Counter("serve_expired_total", "requests expired in queue before solving"),
			solves:    r.Counter("serve_solves_total", "solves executed"),
			batches:   r.Counter("serve_batches_total", "session checkouts (batches)"),
			errors:    r.Counter("serve_errors_total", "solves returning an error"),
			retried:   r.Counter("serve_retried_total", "request re-runs after a faulted solve"),
			faulted:   r.Counter("serve_faulted_total", "requests faulted beyond the retry budget"),
			recovered: r.Counter("serve_recovered_total", "requests rescued by a retry"),
			sessions:  r.Gauge("serve_sessions", "warmed sessions across all keys"),
			queueMax: r.Gauge("serve_queue_depth_peak",
				"deepest queue observed at admission since service start; high-water mark only, never resets or decays"),
			queueDepth: r.Gauge("serve_queue_depth",
				"current queue depth, sampled at enqueue and dequeue"),
			latency: r.Histogram("serve_latency_seconds", "request latency (admission to response)",
				[]float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}),
			queueWait: r.Histogram("serve_queue_wait_seconds", "time between admission and solve start",
				[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}),
			batchSize: r.Histogram("serve_batch_size", "requests coalesced per session checkout",
				[]float64{1, 2, 4, 8, 16, 32}),
		},
	}
	s.flight = obs.NewFlightRecorder(o.FlightRing, o.FlightDir)
	return s
}

// normalize validates the request's algorithm selection and folds the
// MethodCSI alias into its canonical key.
func normalize(req *Request) (Key, error) {
	if !req.Method.Valid() {
		return Key{}, fmt.Errorf("serve: unknown method %v: %w", req.Method, core.ErrBadSpec)
	}
	if !req.Precond.Valid() {
		return Key{}, fmt.Errorf("serve: unknown preconditioner %v: %w", req.Precond, core.ErrBadSpec)
	}
	k := Key{Grid: req.Grid, Method: req.Method, Precond: req.Precond}
	if k.Grid == "" {
		k.Grid = grid.PresetTest
	}
	if k.Method == core.MethodCSI {
		k.Method = core.MethodPCSI
		k.Precond = core.PrecondIdentity
	}
	if k.Method == core.MethodSStep {
		k.SStep = req.SStep
		if k.SStep == 0 {
			k.SStep = core.DefaultSStep
		}
		if k.SStep < 1 || k.SStep > core.MaxSStep {
			return Key{}, fmt.Errorf("serve: s-step block size %d out of 1..%d: %w", k.SStep, core.MaxSStep, core.ErrBadSpec)
		}
	}
	return k, nil
}

// NormalizeRequest validates req's algorithm selection and returns the
// session-pool key it would be served under — the same normalization Solve
// applies at admission, exported so the fleet router can shard on the
// canonical key (csi and pcsi/none land on the same shard, exactly as they
// share a pool here).
func NormalizeRequest(req Request) (Key, error) { return normalize(&req) }

// Solve submits one request and blocks until its solve completes, the
// context is done, or the request is shed. Safe for concurrent use. The
// returned Response.X is an independent copy of the solution.
//
// Every request gets a trace ID — the one carried by ctx
// (obs.ContextWithTraceID) when present, a fresh one otherwise — returned in
// Response.TraceID and stamped onto every rank-level span the solve emits.
func (s *Service) Solve(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	traceID := obs.TraceIDFromContext(ctx)
	if traceID == 0 {
		traceID = obs.NewTraceID()
		ctx = obs.ContextWithTraceID(ctx, traceID)
	}
	s.m.requests.Inc()
	key, err := normalize(&req)
	if err != nil {
		return Response{}, err
	}

	p, err := s.pool(key)
	if err != nil {
		return Response{}, err
	}
	// Warm the first session synchronously so build errors (unknown grid,
	// bad options) surface here rather than poisoning the queue.
	if err := p.ensureBuilt(); err != nil {
		return Response{}, err
	}
	if n := p.n(); len(req.B) != n {
		return Response{}, fmt.Errorf("serve: rhs length %d, want %d for grid %q: %w",
			len(req.B), n, key.Grid, core.ErrBadSpec)
	}
	if req.X0 != nil && len(req.X0) != p.n() {
		return Response{}, fmt.Errorf("serve: x0 length %d, want %d for grid %q: %w",
			len(req.X0), p.n(), key.Grid, core.ErrBadSpec)
	}

	r := &request{ctx: ctx, req: req, key: key, resp: make(chan result, 1),
		traceID: traceID, start: start, enqueued: time.Now()}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Response{}, ErrClosed
	}
	select {
	case p.queue <- r:
	default:
		s.mu.RUnlock()
		s.m.shed.Inc()
		return Response{}, ErrOverloaded
	}
	depth := len(p.queue)
	s.mu.RUnlock()
	s.m.queueDepth.Set(float64(depth))
	s.m.queueMax.SetMax(float64(depth))
	// A backlog deeper than one batch means the current workers are
	// saturated; warm another session if the key has headroom.
	if depth > s.opts.MaxBatch {
		p.maybeGrow()
	}

	select {
	case out := <-r.resp:
		s.m.latency.Observe(time.Since(r.start).Seconds())
		return out.resp, out.err
	case <-ctx.Done():
		// The worker may still run or skip this request; either way it
		// sends into the buffered channel and never blocks on us.
		return Response{}, fmt.Errorf("serve: request abandoned: %w", context.Cause(ctx))
	}
}

// pool returns (creating if needed) the key's pool.
func (s *Service) pool(key Key) (*keyPool, error) {
	s.mu.RLock()
	p := s.pools[key]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if p != nil {
		return p, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if p = s.pools[key]; p == nil {
		p = &keyPool{
			svc:   s,
			key:   key,
			queue: make(chan *request, s.opts.MaxQueue),
		}
		s.pools[key] = p
	}
	return p, nil
}

// Snapshot returns the current counter values.
func (s *Service) Snapshot() Stats {
	return Stats{
		Requests:  s.m.requests.Value(),
		Shed:      s.m.shed.Value(),
		Expired:   s.m.expired.Value(),
		Solves:    s.m.solves.Value(),
		Batches:   s.m.batches.Value(),
		Errors:    s.m.errors.Value(),
		Sessions:  int64(s.m.sessions.Value()),
		Retried:   s.m.retried.Value(),
		Faulted:   s.m.faulted.Value(),
		Recovered: s.m.recovered.Value(),
	}
}

// Grids returns the names of the grid presets the service has resolved so
// far, sorted — the self-description surfaced by popserver's /stats.
func (s *Service) Grids() []string {
	s.gridMu.Lock()
	defer s.gridMu.Unlock()
	names := make([]string, 0, len(s.grids))
	for name := range s.grids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Registry returns the metrics registry the service reports into.
func (s *Service) Registry() *obs.Registry { return s.opts.Registry }

// Flight returns the service's flight recorder (always non-nil).
func (s *Service) Flight() *obs.FlightRecorder { return s.flight }

// WritePerfetto exports every session's rank-level spans plus the flight
// recorder's request records as Chrome trace-event JSON (one Perfetto
// process per session, one thread per rank, the serve layer on its own
// process). It briefly serializes against each session's worker — export
// waits for in-flight batches so the single-writer rings are quiescent when
// read — and publishes ring-drop totals into obs_trace_dropped_total.
// Sessions built without tracing (Options.TraceCapacity == 0) contribute
// only request records.
func (s *Service) WritePerfetto(w io.Writer) error {
	tracks, dropped := s.ExportTracks()
	return obs.WritePerfetto(w, tracks, s.flight.Recent(), dropped)
}

// ExportTracks snapshots every traced session's rank-level spans as Perfetto
// tracks (PID = session index + 1, as WritePerfetto renders them) and
// returns them with the total ring-drop count. It serializes against each
// session's worker exactly like WritePerfetto. The fleet layer uses it to
// merge worker tracks — rewriting PIDs and process names per worker — into
// one fleet-wide trace.
func (s *Service) ExportTracks() ([]obs.Track, int64) {
	s.sessMu.Lock()
	slots := append([]*sessionSlot(nil), s.sess...)
	s.sessMu.Unlock()
	var tracks []obs.Track
	var dropped int64
	for _, sl := range slots {
		if sl.tracer == nil {
			continue
		}
		sl.mu.Lock()
		sl.tracer.ExportDropped(s.opts.Registry)
		dropped += sl.tracer.Dropped()
		tracks = append(tracks, sl.tracer.Tracks(fmt.Sprintf("session %d %s", sl.idx, sl.key), sl.idx+1)...)
		sl.mu.Unlock()
	}
	return tracks, dropped
}

// Close drains the service: new requests are rejected with ErrClosed,
// already-queued requests are still solved, and Close returns when every
// worker has finished (or ctx expires first, leaving workers to finish in
// the background).
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, p := range s.pools {
			close(p.queue)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", context.Cause(ctx))
	}
}
