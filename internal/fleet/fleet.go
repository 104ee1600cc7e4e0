// Package fleet is the sharded serving layer: N solve workers behind a
// router that consistent-hashes requests onto shards, deduplicates
// concurrent identical solves, and replays completed solves from a
// content-addressed result cache.
//
// The paper's diagnosis — a barotropic solver stops scaling when one
// execution context saturates — has a serving-layer analog: one popserver
// process tops out when its session pools and GOMAXPROCS are spent.
// The fleet multiplies that ceiling the way the paper multiplies ranks:
// shard the keyspace so each worker keeps its own warm session pools
// (consistent hashing on the canonical pool key, so "csi" and "pcsi/none"
// land together exactly as they share a pool), and exploit determinism —
// the property every layer of this repo defends — to make completed solves
// reusable: identical inputs produce bitwise-identical outputs, so a cache
// hit IS the solve.
//
// Three layers answer a request, cheapest first:
//
//  1. The result cache (content hash of grid, method, precond, s-step
//     block size, tolerance, RHS bits, x0 bits) replays a finished solve
//     bitwise.
//  2. Singleflight collapses requests identical to one already in flight:
//     followers wait for the leader's solve instead of duplicating it.
//  3. The ring routes the miss to its home shard; a shed (a full queue)
//     fails over to the next distinct shard clockwise.
//
// Workers are serve.Services — each with its own queues, batching, request
// retry and flight recorder — either in-process
// (LocalWorker) or remote popservers spoken to in the compact binary frame
// (HTTPWorker).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Options configures a Fleet.
type Options struct {
	// Workers is the local worker count (ignored when Remotes is set);
	// default 2.
	Workers int
	// Remotes lists remote popserver base URLs; when non-empty the fleet
	// routes to them instead of building local workers.
	Remotes []string
	// Worker configures each local worker's serve.Service. The Registry
	// field is ignored: every worker gets a private registry, because obs
	// counters dedupe by name and shared registries would silently merge
	// worker counters.
	Worker serve.Options

	// CacheCapacity bounds the result cache (entries); 0 = 4096, negative
	// disables caching.
	CacheCapacity int
	// CacheTTL bounds entry lifetime; 0 = 10 minutes, negative = no expiry.
	CacheTTL time.Duration
	// Clock overrides the cache's time source (tests); nil = time.Now.
	Clock func() time.Time

	// Registry receives the fleet_* router metrics; nil creates a private
	// one. Worker metrics live in each worker's own registry.
	Registry *obs.Registry
	// FlightRing sizes the router's flight recorder (records for requests
	// answered without dispatching to a worker); 0 = obs.DefaultFlightRing.
	FlightRing int
}

// Request is one fleet solve submission: a serve request plus router
// directives.
type Request struct {
	// Request is the underlying solve request.
	serve.Request
	// NoCache bypasses the result cache for this request (the completed
	// solve still populates it).
	NoCache bool
}

// Response is one completed fleet solve.
type Response struct {
	// Response is the worker-level response (Result, X, TraceID).
	serve.Response
	// Cache reports how the router satisfied the request: "hit", "miss",
	// or "dedup".
	Cache string
	// Shard is the worker that ran the solve (-1 for cache hits — no
	// worker was consulted).
	Shard int
}

// Fleet is the router. Create with New, submit with Solve from any number
// of goroutines, stop with Close.
type Fleet struct {
	workers []Worker
	ring    *ring
	cache   *resultCache
	group   *flightGroup
	flight  *obs.FlightRecorder
	tol     float64
	m       fleetMetrics
}

type fleetMetrics struct {
	requests  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	deduped   *obs.Counter
	failovers *obs.Counter
	errors    *obs.Counter
	routerLat *obs.Histogram
}

// New builds a fleet: local workers (Options.Workers services with private
// registries) or remote ones (Options.Remotes), the hash ring over them,
// and the cache/dedup layers.
func New(opts Options) (*Fleet, error) {
	if len(opts.Remotes) == 0 && opts.Workers == 0 {
		opts.Workers = 2
	}
	var workers []Worker
	if len(opts.Remotes) > 0 {
		for _, base := range opts.Remotes {
			workers = append(workers, NewHTTPWorker(base, nil))
		}
	} else {
		for i := 0; i < opts.Workers; i++ {
			wo := opts.Worker
			wo.Registry = nil // private per worker — see Options.Worker
			workers = append(workers, NewLocalWorker(serve.New(wo)))
		}
	}

	capacity := opts.CacheCapacity
	switch {
	case capacity == 0:
		capacity = 4096
	case capacity < 0:
		capacity = 0
	}
	ttl := opts.CacheTTL
	switch {
	case ttl == 0:
		ttl = 10 * time.Minute
	case ttl < 0:
		ttl = 0
	}
	tol := opts.Worker.Solver.Tol
	if tol == 0 {
		tol = 1e-13 // core.Options default; keep the hash honest about it
	}

	r := opts.Registry
	if r == nil {
		r = obs.NewRegistry()
	}
	f := &Fleet{
		workers: workers,
		ring:    newRing(len(workers)),
		cache:   newResultCache(capacity, ttl, opts.Clock),
		group:   newFlightGroup(),
		flight:  obs.NewFlightRecorder(opts.FlightRing, ""),
		tol:     tol,
		m: fleetMetrics{
			requests:  r.Counter("fleet_requests_total", "requests entering the router"),
			hits:      r.Counter("fleet_cache_hits_total", "requests answered from the result cache"),
			misses:    r.Counter("fleet_cache_misses_total", "requests dispatched to a worker"),
			deduped:   r.Counter("fleet_deduped_total", "requests collapsed onto an in-flight identical solve"),
			failovers: r.Counter("fleet_failovers_total", "requests re-routed after a shed on their home shard"),
			errors:    r.Counter("fleet_errors_total", "requests leaving the router with an error"),
			routerLat: r.Histogram("fleet_router_seconds", "router time before dispatch or cache reply",
				[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}),
		},
	}
	return f, nil
}

// Solve routes one request: cache, then singleflight, then the ring.
// Responses are bitwise identical to a direct core solve of the same
// request — on miss because workers are deterministic, on hit because the
// cache replays the stored bits, on dedup because followers share the
// leader's solve.
func (f *Fleet) Solve(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	f.m.requests.Inc()
	traceID := obs.TraceIDFromContext(ctx)
	if traceID == 0 {
		traceID = obs.NewTraceID()
		ctx = obs.ContextWithTraceID(ctx, traceID)
	}

	key, hash, err := f.cacheKey(req.Request)
	if err != nil {
		f.m.errors.Inc()
		return Response{Shard: -1}, err
	}

	if f.cache.cap > 0 && !req.NoCache {
		if res, x, ok := f.cache.get(hash); ok {
			f.m.hits.Inc()
			f.m.routerLat.Observe(time.Since(start).Seconds())
			f.noteRouterRecord(traceID, key, start, "hit", "")
			return Response{
				Response: serve.Response{Result: res, X: x, TraceID: traceID},
				Cache:    "hit",
				Shard:    -1,
			}, nil
		}
	}

	out, err, shared := f.group.do(ctx, hash, func() (dispatched, error) {
		return f.dispatch(ctx, key, req.Request)
	})
	if err != nil {
		f.m.errors.Inc()
		f.noteRouterRecord(traceID, key, start, "", err.Error())
		return Response{Shard: -1}, err
	}

	state := "miss"
	if shared {
		state = "dedup"
		f.m.deduped.Inc()
		// Followers share the leader's backing arrays; give this caller its
		// own copy, like every other path does.
		x := make([]float64, len(out.resp.X))
		copy(x, out.resp.X)
		out.resp.X = x
		out.resp.TraceID = traceID
	} else {
		f.m.misses.Inc()
		f.cache.put(hash, out.resp.Result, out.resp.X)
	}
	return Response{Response: out.resp, Cache: state, Shard: out.shard}, nil
}

// cacheKey normalizes the request to its pool key and content-hashes
// everything that determines the solve's bits: the key's scalars, the
// fleet's tolerance and both vectors.
func (f *Fleet) cacheKey(req serve.Request) (serve.Key, api.CacheKey, error) {
	key, err := serve.NormalizeRequest(req)
	if err != nil {
		return serve.Key{}, api.CacheKey{}, err
	}
	// core.Float64: HashSolve's vestigial argument, pinned by benchmark/.
	return key, api.HashSolve(key.Grid, key.Method, key.Precond, core.Float64, key.SStep, f.tol, req.B, req.X0), nil
}

// dispatch sends the request to its home shard, failing over clockwise on
// sheds (a full queue) so a struggling shard degrades into spillover instead
// of errors.
func (f *Fleet) dispatch(ctx context.Context, key serve.Key, req serve.Request) (dispatched, error) {
	order := f.ring.successors(key.String())
	var lastErr error
	for i, shard := range order {
		if i > 0 {
			f.m.failovers.Inc()
		}
		resp, err := f.workers[shard].Solve(ctx, req)
		if err == nil {
			return dispatched{resp: resp, shard: shard}, nil
		}
		lastErr = err
		if !errors.Is(err, serve.ErrOverloaded) {
			return dispatched{}, err
		}
	}
	return dispatched{}, fmt.Errorf("fleet: all %d shards shed the request: %w", len(order), lastErr)
}

// noteRouterRecord files a flight record for a request the router answered
// (or rejected) without dispatching to a worker. Dispatched requests are
// deliberately NOT recorded here — the worker's own flight recorder has
// their full phase breakdown, and double records would double-count in
// poptrace aggregates.
func (f *Fleet) noteRouterRecord(traceID uint64, key serve.Key, start time.Time, cache, errStr string) {
	total := time.Since(start).Nanoseconds()
	f.flight.Note(obs.RequestRecord{
		TraceID:     traceID,
		Key:         key.String(),
		Session:     -1,
		Shard:       -1,
		Cache:       cache,
		StartUnixNS: start.UnixNano(),
		RouterNS:    total,
		TotalNS:     total,
		Converged:   cache == "hit",
		Error:       errStr,
	})
}

// Stats assembles the fleet-wide /v1/stats view: router counters, one row
// per worker, and the summed totals.
func (f *Fleet) Stats(ctx context.Context) api.StatsResponse {
	if ctx == nil {
		ctx = context.Background()
	}
	cs := f.cache.stats()
	fc := &api.FleetCounters{
		Requests:         f.m.requests.Value(),
		CacheHits:        f.m.hits.Value(),
		CacheMisses:      f.m.misses.Value(),
		Deduped:          f.m.deduped.Value(),
		Failovers:        f.m.failovers.Value(),
		Errors:           f.m.errors.Value(),
		CacheEntries:     cs.entries,
		CacheEvictions:   cs.evictions,
		CacheExpirations: cs.expirations,
	}
	out := api.StatsResponse{Fleet: fc}
	gridSet := make(map[string]bool)
	for i, w := range f.workers {
		row := api.WorkerStats{Worker: i, Addr: w.Addr(), Healthy: true}
		counters, grids, err := w.Counters(ctx)
		if err != nil {
			row.Healthy = false
		} else {
			row.Counters = counters
			for _, g := range grids {
				gridSet[g] = true
			}
		}
		out.Workers = append(out.Workers, row)
		out.Totals.Add(row.Counters)
	}
	for g := range gridSet {
		out.Grids = append(out.Grids, g)
	}
	sort.Strings(out.Grids)
	return out
}

// Flight returns the router's flight recorder (records for requests that
// never reached a worker).
func (f *Fleet) Flight() *obs.FlightRecorder { return f.flight }

// FlightRecords merges the fleet's flight-recorder view: the router's own
// records plus every local worker's, with worker records stamped with their
// shard. Remote workers keep their recorders in their own processes.
func (f *Fleet) FlightRecords() []obs.RequestRecord {
	recs := append([]obs.RequestRecord(nil), f.flight.Recent()...)
	for i, wk := range f.workers {
		lw, ok := wk.(*LocalWorker)
		if !ok {
			continue
		}
		for _, rec := range lw.Service().Flight().Recent() {
			if rec.Shard < 0 {
				rec.Shard = i
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// workerPIDStride separates worker track PIDs in the merged Perfetto
// export: worker i's session s renders as PID i*stride + s + 1.
const workerPIDStride = 1000

// WritePerfetto merges every local worker's rank-level tracks and request
// records with the router's own records into one fleet-wide Chrome trace:
// worker i's tracks are re-homed to PID i*workerPIDStride + session and
// prefixed "worker i", and worker records get their shard stamped so
// poptrace's shard rollup works across the fleet. Remote workers keep
// their traces on their own processes and contribute nothing here.
func (f *Fleet) WritePerfetto(w io.Writer) error {
	var tracks []obs.Track
	var dropped int64
	for i, wk := range f.workers {
		lw, ok := wk.(*LocalWorker)
		if !ok {
			continue
		}
		ts, d := lw.Service().ExportTracks()
		dropped += d
		for _, t := range ts {
			t.PID = i*workerPIDStride + t.PID
			t.Process = fmt.Sprintf("worker %d %s", i, t.Process)
			tracks = append(tracks, t)
		}
	}
	return obs.WritePerfetto(w, tracks, f.FlightRecords(), dropped)
}

// Workers returns the fleet's workers in shard order (read-only; exposed
// for stats endpoints and trace export).
func (f *Fleet) Workers() []Worker { return f.workers }

// HomeShard returns the shard a request's canonical key routes to —
// useful for tests and for stamping responses.
func (f *Fleet) HomeShard(req serve.Request) (int, error) {
	key, err := serve.NormalizeRequest(req)
	if err != nil {
		return -1, err
	}
	return f.ring.lookup(key.String()), nil
}

// Close drains every worker. Local workers finish queued solves; remote
// workers are left running (their processes own their lifecycle).
func (f *Fleet) Close(ctx context.Context) error {
	var firstErr error
	for _, w := range f.workers {
		if err := w.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
