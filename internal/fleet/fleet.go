// Package fleet is the sharded serving layer: N in-process solve workers
// behind a router that consistent-hashes requests onto shards and replays
// completed solves from a content-addressed result cache.
//
// Each worker keeps its own warm session pools (consistent hashing on the
// canonical pool key, so "csi" and "pcsi/none" land together exactly as
// they share a pool), and the router exploits determinism — the property
// every layer of this repo defends — to make completed solves reusable:
// identical inputs produce bitwise-identical outputs, so a cache hit IS the
// solve.
//
// Two layers answer a request, cheapest first:
//
//  1. The result cache (content hash of grid, method, precond, tolerance,
//     RHS bits, x0 bits) replays a finished solve bitwise. It is an LRU
//     bounded by Options.CacheCapacity.
//  2. The ring routes the miss to its home shard, exactly once: a shed (a
//     full queue) comes back as serve.ErrOverloaded, as it would from a
//     single service.
//
// Workers are serve.Services in this process, each with its own queues,
// batching and flight recorder.
package fleet

import (
	"context"
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
	// Workers is the worker count; default 2.
	Workers int
	// Worker configures each worker's serve.Service. The Registry
	// field is ignored: every worker gets a private registry, because obs
	// counters dedupe by name and shared registries would silently merge
	// worker counters.
	Worker serve.Options

	// CacheCapacity bounds the result cache (entries); 0 = 4096, negative
	// disables caching.
	CacheCapacity int

	// Registry receives the fleet_* router metrics; nil creates a private
	// one. Worker metrics live in each worker's own registry.
	Registry *obs.Registry
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
	// Cache reports how the router satisfied the request: "hit" or "miss".
	Cache string
	// Shard is the worker that ran the solve (-1 for cache hits — no
	// worker was consulted).
	Shard int
}

// Fleet is the router. Create with New, submit with Solve from any number
// of goroutines, stop with Close.
type Fleet struct {
	workers []*serve.Service
	ring    *ring
	cache   *resultCache
	flight  obs.FlightRecorder
	tol     float64
	m       fleetMetrics
}

type fleetMetrics struct {
	requests  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	errors    *obs.Counter
	routerLat *obs.Histogram
}

// New builds a fleet: Options.Workers services with private registries,
// the hash ring over them, and the result cache.
func New(opts Options) (*Fleet, error) {
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	workers := make([]*serve.Service, opts.Workers)
	for i := range workers {
		wo := opts.Worker
		wo.Registry = nil // private per worker — see Options.Worker
		workers[i] = serve.New(wo)
	}

	capacity := opts.CacheCapacity
	switch {
	case capacity == 0:
		capacity = 4096
	case capacity < 0:
		capacity = 0
	}
	tol := opts.Worker.Solver.Tol
	if tol == 0 {
		tol = core.DefaultTol // the tolerance the workers' sessions default to
	}

	r := opts.Registry
	if r == nil {
		r = obs.NewRegistry()
	}
	f := &Fleet{
		workers: workers,
		ring:    newRing(len(workers)),
		cache:   newResultCache(capacity),
		tol:     tol,
		m: fleetMetrics{
			requests: r.Counter("fleet_requests_total", "requests entering the router"),
			hits:     r.Counter("fleet_cache_hits_total", "requests answered from the result cache"),
			misses:   r.Counter("fleet_cache_misses_total", "requests dispatched to a worker"),
			errors:   r.Counter("fleet_errors_total", "requests leaving the router with an error"),
			routerLat: r.Histogram("fleet_router_seconds", "router time before dispatch or cache reply",
				[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1}),
		},
	}
	return f, nil
}

// Solve routes one request: the cache, then the home shard the ring names.
// Responses are bitwise identical to a direct core solve of the same
// request — on miss because workers are deterministic, on hit because the
// cache replays the stored bits. A shed home shard is not retried
// elsewhere: its serve.ErrOverloaded is the caller's answer.
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
		if res, x, ok := f.cache.get(hash, req.B); ok {
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

	shard := f.ring.lookup(key.String())
	resp, err := f.workers[shard].Solve(ctx, req.Request)
	if err != nil {
		f.m.errors.Inc()
		f.noteRouterRecord(traceID, key, start, "", err.Error())
		return Response{Shard: -1}, err
	}
	f.m.misses.Inc()
	f.cache.put(hash, resp.Result, resp.X, req.B)
	return Response{Response: resp, Cache: "miss", Shard: shard}, nil
}

// cacheKey normalizes the request to its pool key and content-hashes
// everything that determines the solve's bits: the key's scalars, the
// fleet's tolerance and both vectors.
func (f *Fleet) cacheKey(req serve.Request) (serve.Key, api.CacheKey, error) {
	key, err := serve.NormalizeRequest(req)
	if err != nil {
		return serve.Key{}, api.CacheKey{}, err
	}
	// core.Float64 and 0 (precision, sstep): HashSolve's vestigial
	// arguments, pinned by benchmark/.
	return key, api.HashSolve(key.Grid, key.Method, key.Precond, core.Float64, 0, f.tol, req.B, req.X0), nil
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
	_ = ctx // every counter is an in-process snapshot: nothing to wait on
	cs := f.cache.stats()
	fc := &api.FleetCounters{
		Requests:       f.m.requests.Value(),
		CacheHits:      f.m.hits.Value(),
		CacheMisses:    f.m.misses.Value(),
		Errors:         f.m.errors.Value(),
		CacheEntries:   cs.entries,
		CacheEvictions: cs.evictions,
	}
	out := api.StatsResponse{Fleet: fc}
	gridSet := make(map[string]bool)
	for i, w := range f.workers {
		row := api.WorkerStats{Worker: i, Counters: w.Snapshot()}
		for _, g := range w.Grids() {
			gridSet[g] = true
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
func (f *Fleet) Flight() *obs.FlightRecorder { return &f.flight }

// FlightRecords merges the fleet's flight-recorder view: the router's own
// records plus every worker's, with worker records stamped with their shard.
func (f *Fleet) FlightRecords() []obs.RequestRecord {
	recs := append([]obs.RequestRecord(nil), f.flight.Recent()...)
	for i, w := range f.workers {
		for _, rec := range w.Flight().Recent() {
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

// WritePerfetto merges every worker's rank-level tracks and request records
// with the router's own records into one fleet-wide Chrome trace: worker
// i's tracks are re-homed to PID i*workerPIDStride + session and prefixed
// "worker i", and worker records get their shard stamped so poptrace's
// shard rollup works across the fleet.
func (f *Fleet) WritePerfetto(w io.Writer) error {
	var tracks []obs.Track
	var dropped int64
	for i, wk := range f.workers {
		ts, d := wk.ExportTracks()
		dropped += d
		for _, t := range ts {
			t.PID = i*workerPIDStride + t.PID
			t.Process = fmt.Sprintf("worker %d %s", i, t.Process)
			tracks = append(tracks, t)
		}
	}
	return obs.WritePerfetto(w, tracks, f.FlightRecords(), dropped)
}

// HomeShard returns the shard a request's canonical key routes to —
// useful for tests and for stamping responses.
func (f *Fleet) HomeShard(req serve.Request) (int, error) {
	key, err := serve.NormalizeRequest(req)
	if err != nil {
		return -1, err
	}
	return f.ring.lookup(key.String()), nil
}

// Close drains every worker: each finishes its queued solves.
func (f *Fleet) Close(ctx context.Context) error {
	var firstErr error
	for _, w := range f.workers {
		if err := w.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
