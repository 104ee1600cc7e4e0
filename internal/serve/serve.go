// Package serve is the concurrent solve service: a pool of warmed-up solver
// sessions (block operators assembled, preconditioner factored, eigenvalue
// bounds cached) serving Solve requests from many goroutines at once.
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
	"cmp"
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
	// Cores is the virtual rank count per session (0 = one block covering
	// the whole grid, on one rank).
	Cores int
	// Tau is the barotropic time step for the operator's mass term
	// (0 = each grid's own step, grid.Grid.Tau).
	Tau float64
	// MachineName prices virtual time ("" = free, the serving default).
	MachineName string
	// Threads caps how many virtual ranks per session run concurrently on
	// real cores (comm.World.SetThreads). 0 resolves per solve: the
	// processors no other default-threaded solve holds, so concurrent
	// sessions share the cores instead of each starting GOMAXPROCS
	// workers. Solves stay bitwise identical across settings; only
	// wall-clock and scheduling pressure change.
	Threads int
	// Solver carries the remaining solver knobs (Precond, Tol, MaxIters,
	// CheckEvery). Precond is overwritten per request.
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

	// TraceCapacity, when > 0, attaches a tracer to every session's world
	// retaining this many events per rank, enabling request-scoped span
	// trees and Perfetto export (WritePerfetto). 0 (the default) disables
	// rank-level tracing; request records still flow to the flight recorder.
	TraceCapacity int
}

func (o Options) withDefaults() Options {
	if o.MaxSessionsPerKey == 0 {
		o.MaxSessionsPerKey = 2
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 8
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
}

// String renders the key for metric labels: "test/pcsi/evp".
func (k Key) String() string {
	return k.Grid + "/" + k.Method.String() + "/" + k.Precond.String()
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
	// B is the right-hand side (length = grid N). X0 is the initial guess
	// (nil = zero).
	B, X0 []float64
}

// Response is one completed solve. X is the caller's copy of the solution —
// unlike core.Session solves, it is not invalidated by later requests.
type Response struct {
	// Result summarizes the solve (iterations, convergence, virtual-time
	// statistics).
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
	// summary lands in its ring of the last obs.DefaultFlightRing.
	flight obs.FlightRecorder

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

// metrics are the service's series: atomic adds and Observe calls on the
// request path, read by WritePrometheus at scrape.
type metrics struct {
	requests, shed, expired, solves, batches, errors obs.Counter

	queueMax obs.Gauge // high-water mark of one key's queue at admission
	// traceDropped is the trace rings' drop total at the latest
	// ExportTracks; SetMax keeps it monotone under concurrent exports.
	traceDropped obs.Gauge

	latency, queueWait, batchSize *obs.Histogram
}

// New builds a Service. No sessions are warmed until the first request for
// each key arrives (warm-up is synchronous on that first request, so
// configuration errors surface at the caller).
func New(opts Options) *Service {
	return &Service{
		opts:  opts.withDefaults(),
		pools: make(map[Key]*keyPool),
		grids: make(map[string]*gridEntry),
		m: metrics{
			latency:   obs.NewHistogram([]float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}),
			queueWait: obs.NewHistogram([]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}),
			batchSize: obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32}),
		},
	}
}

// WritePrometheus renders the service's metrics as Prometheus text, in
// name order. The queue depth and session count are read here, from the
// pools and the build count, rather than kept in gauges a racing writer
// could leave stale.
func (s *Service) WritePrometheus(w io.Writer) error {
	m := &s.m
	return obs.WritePrometheus(w, []obs.Series{
		{Name: "obs_trace_dropped_total", Type: "counter", Value: m.traceDropped.Value(),
			Help: "trace events lost to ring-buffer wraparound (truncated traces)"},
		{Name: "serve_batch_size", Type: "histogram", Hist: m.batchSize,
			Help: "requests coalesced per session checkout"},
		{Name: "serve_batches_total", Type: "counter", Value: float64(m.batches.Value()),
			Help: "session checkouts (batches)"},
		{Name: "serve_errors_total", Type: "counter", Value: float64(m.errors.Value()),
			Help: "solves returning an error"},
		{Name: "serve_expired_total", Type: "counter", Value: float64(m.expired.Value()),
			Help: "requests expired in queue before solving"},
		{Name: "serve_latency_seconds", Type: "histogram", Hist: m.latency,
			Help: "request latency (admission to response)"},
		{Name: "serve_queue_depth", Type: "gauge", Value: float64(s.queued()),
			Help: "requests waiting in every key's queue, read at scrape"},
		{Name: "serve_queue_depth_peak", Type: "gauge", Value: m.queueMax.Value(),
			Help: "deepest queue observed at admission since service start; high-water mark only, never resets or decays"},
		{Name: "serve_queue_wait_seconds", Type: "histogram", Hist: m.queueWait,
			Help: "time between admission and solve start"},
		{Name: "serve_requests_total", Type: "counter", Value: float64(m.requests.Value()),
			Help: "solve admissions attempted"},
		{Name: "serve_sessions", Type: "gauge", Value: float64(s.sessCount.Load()),
			Help: "warmed sessions across all keys"},
		{Name: "serve_shed_total", Type: "counter", Value: float64(m.shed.Value()),
			Help: "requests shed with ErrOverloaded"},
		{Name: "serve_solves_total", Type: "counter", Value: float64(m.solves.Value()),
			Help: "solves executed"},
	})
}

// queued is the service's backlog: the requests waiting in every key's
// queue.
func (s *Service) queued() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, p := range s.pools {
		n += len(p.queue)
	}
	return n
}

// normalize validates the request's algorithm selection and folds it into
// its canonical key (core.Canonical).
func normalize(req *Request) (Key, error) {
	k := Key{Grid: cmp.Or(req.Grid, grid.PresetTest)}
	var err error
	if k.Method, k.Precond, err = core.Canonical(req.Method, req.Precond); err != nil {
		return Key{}, err
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
		Requests: s.m.requests.Value(),
		Shed:     s.m.shed.Value(),
		Expired:  s.m.expired.Value(),
		Solves:   s.m.solves.Value(),
		Batches:  s.m.batches.Value(),
		Errors:   s.m.errors.Value(),
		Sessions: s.sessCount.Load(),
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

// Flight returns the service's flight recorder (always non-nil).
func (s *Service) Flight() *obs.FlightRecorder { return &s.flight }

// WritePerfetto exports every session's rank-level spans plus the flight
// recorder's request records as Chrome trace-event JSON (one Perfetto
// process per session, one thread per rank, the serve layer on its own
// process). It briefly serializes against each session's worker — export
// waits for in-flight batches so the single-writer rings are quiescent when
// read — and updates obs_trace_dropped_total (see ExportTracks).
// Sessions built without tracing (Options.TraceCapacity == 0) contribute
// only request records.
func (s *Service) WritePerfetto(w io.Writer) error {
	tracks, dropped := s.ExportTracks()
	return obs.WritePerfetto(w, tracks, s.flight.Recent(), dropped)
}

// ExportTracks snapshots every traced session's rank-level spans as Perfetto
// tracks (PID = session index + 1, as WritePerfetto renders them) and
// returns them with the total ring-drop count, which /metrics reports as
// obs_trace_dropped_total. It serializes against each session's worker
// exactly like WritePerfetto. The fleet layer uses it to merge worker
// tracks — rewriting PIDs and process names per worker — into one
// fleet-wide trace.
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
		dropped += sl.tracer.Dropped()
		tracks = append(tracks, sl.tracer.Tracks(fmt.Sprintf("session %d %s", sl.idx, sl.key), sl.idx+1)...)
		sl.mu.Unlock()
	}
	s.m.traceDropped.SetMax(float64(dropped))
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
