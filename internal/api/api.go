// Package api is the shared wire surface of the solve service: the typed
// request/response structs, the versioned HTTP paths, the enum
// normalization applied once at the boundary, the compact binary frame the
// fleet router and its workers speak on the hot path, and the content hash
// that keys the fleet's result cache.
//
// Before this package, popserver, popbench and every ad-hoc client carried
// their own copies of the solve JSON structs; they now all import these.
// The HTTP surface is versioned under /v1 — V1Solve, V1Stats, V1Health.
//
// Two encodings share the same logical schema:
//
//   - JSON (ContentTypeJSON): the interoperable default for humans, curl,
//     and load balancers.
//   - A compact binary frame (ContentTypeFrame): length-prefixed strings,
//     raw little-endian float64 vectors, no per-request reflection or
//     base64 — the router↔worker hot path, where a 3072-point RHS costs
//     24 KiB on the wire instead of ~60 KiB of JSON digits. See frame.go
//     for the exact layout (documented in DESIGN.md §13).
package api

// Versioned HTTP paths.
const (
	// V1Solve is the versioned solve endpoint (POST, JSON or binary frame).
	V1Solve = "/v1/solve"
	// V1Stats is the versioned counter-snapshot endpoint (GET).
	V1Stats = "/v1/stats"
	// V1Health is the versioned health endpoint (GET; 200 serving, 503
	// draining).
	V1Health = "/v1/healthz"
)

// Content types of the two wire encodings.
const (
	// ContentTypeJSON is the JSON encoding of the wire structs.
	ContentTypeJSON = "application/json"
	// ContentTypeFrame is the compact binary frame encoding (frame.go).
	ContentTypeFrame = "application/x-pop-frame"
)

// SolveRequest is one solve submission on the wire (POST V1Solve). Exactly
// one of B or RHS supplies the right-hand side: B is an explicit vector of
// grid length, RHS names a synthetic generator ("smooth") so load
// generators can exercise the endpoint with tiny request bodies.
type SolveRequest struct {
	// Grid names the preset to solve on ("" = "test").
	Grid string `json:"grid,omitempty"`
	// Method names the solver algorithm ("" = "chrongear"); see
	// AcceptedMethods.
	Method string `json:"method,omitempty"`
	// Precond names the preconditioner ("" = "diagonal"); see
	// AcceptedPreconds.
	Precond string `json:"precond,omitempty"`
	// SStep is the communication-avoiding block size for the "sstep"
	// method (0 = server default of 4; valid 1..8). Ignored for other
	// methods.
	SStep int `json:"sstep,omitempty"`
	// B is the explicit right-hand side (length = grid N); mutually
	// exclusive with RHS.
	B []float64 `json:"b,omitempty"`
	// RHS names a synthetic right-hand-side generator; mutually exclusive
	// with B. It is resolved to an explicit B at the boundary before
	// hashing; frames never carry generator names.
	RHS string `json:"rhs,omitempty"`
	// X0 is the initial guess (nil = zero vector).
	X0 []float64 `json:"x0,omitempty"`
	// TimeoutMS bounds the solve in milliseconds (0 = no request deadline):
	// when the solve may run, not what it computes.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// ReturnX asks for the solution vector in the response — a
	// response-shape preference; the cached numerics are identical either way.
	ReturnX bool `json:"return_x,omitempty"`
	// TraceID lets the client supply its own request-scoped trace ID
	// (e.g. propagated from an upstream system); 0 assigns a fresh one.
	// Observability correlation only: hashing it would defeat the result
	// cache.
	TraceID uint64 `json:"trace_id,omitempty"`
	// NoCache asks the fleet router to bypass its result cache for this
	// request (the solve still populates it). Single-process servers
	// ignore it. A cache-policy hint: it changes where the answer comes
	// from, not the answer.
	NoCache bool `json:"no_cache,omitempty"`
}

// SolveResponse is one completed solve on the wire.
type SolveResponse struct {
	// Converged reports whether the solve met its tolerance.
	Converged bool `json:"converged"`
	// Iterations is the solver iteration count.
	Iterations int `json:"iterations"`
	// RelResidual is ‖r‖/‖b‖ at the last convergence check.
	RelResidual float64 `json:"rel_residual"`
	// Solver names the algorithm that produced the answer.
	Solver string `json:"solver"`
	// ElapsedMS is the server-side wall time of the request in
	// milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID correlates the response with its rank-level spans.
	TraceID uint64 `json:"trace_id"`
	// Cache reports how a fleet router satisfied the request: "hit" or
	// "miss" — or "" when the request never crossed a router.
	Cache string `json:"cache,omitempty"`
	// Shard is the fleet worker index that ran the solve (-1 when the
	// request was answered without dispatching to a worker: cache hits,
	// or a single-process server).
	Shard int `json:"shard"`
	// X is the solution vector, present only when the request set
	// ReturnX.
	X []float64 `json:"x,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Field names the request field that failed validation ("" for
	// non-validation errors).
	Field string `json:"field,omitempty"`
	// Accepted lists the values the failing field accepts, so a 400 is
	// self-repairing rather than opaque.
	Accepted []string `json:"accepted,omitempty"`
}

// HealthResponse is the GET V1Health body.
type HealthResponse struct {
	// Status is "ok" while serving, "draining" during shutdown.
	Status string `json:"status"`
}

// ServiceCounters is one solve service's counter snapshot, in memory and on
// the wire: serve.Stats is an alias of it (declared here so the wire surface
// has no dependency on the serving internals).
type ServiceCounters struct {
	// Requests counts solve admissions attempted.
	Requests int64 `json:"requests"`
	// Shed counts requests rejected because a queue was full.
	Shed int64 `json:"shed"`
	// Expired counts requests that expired in queue before solving.
	Expired int64 `json:"expired"`
	// Solves counts solves executed.
	Solves int64 `json:"solves"`
	// Batches counts session checkouts (≤ Solves when coalescing works).
	Batches int64 `json:"batches"`
	// Errors counts solves that returned an error.
	Errors int64 `json:"errors"`
	// Sessions counts sessions built across all keys.
	Sessions int64 `json:"sessions"`
	// Retried counts request re-runs after a faulted resilient solve.
	Retried int64 `json:"retried"`
	// Faulted counts requests whose solve faulted beyond the retry budget.
	Faulted int64 `json:"faulted"`
	// Recovered counts requests rescued by a retry after a faulted solve.
	Recovered int64 `json:"recovered"`
}

// Add accumulates o into c field by field (the fleet's /v1/stats
// aggregation).
func (c *ServiceCounters) Add(o ServiceCounters) {
	c.Requests += o.Requests
	c.Shed += o.Shed
	c.Expired += o.Expired
	c.Solves += o.Solves
	c.Batches += o.Batches
	c.Errors += o.Errors
	c.Sessions += o.Sessions
	c.Retried += o.Retried
	c.Faulted += o.Faulted
	c.Recovered += o.Recovered
}

// FleetCounters is the router-level slice of a fleet's /v1/stats: what the
// routing and caching layers did, above the per-worker serving counters.
type FleetCounters struct {
	// Requests counts requests entering the router.
	Requests int64 `json:"requests"`
	// CacheHits counts requests answered from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts requests that went to a worker.
	CacheMisses int64 `json:"cache_misses"`
	// Deduped is always 0: the router no longer collapses identical
	// in-flight solves (singleflight was removed). A vestige pinned by
	// `benchmark/probes_serving.go:95–96`, like pop.Float64.
	Deduped int64 `json:"deduped"`
	// Failovers is always 0: a shed home shard answers ErrOverloaded and
	// the router no longer walks the ring's successors. A vestige pinned by
	// `benchmark/probes_serving.go:95–96`, like pop.Float64.
	Failovers int64 `json:"failovers"`
	// Errors counts requests that left the router with an error.
	Errors int64 `json:"errors"`
	// CacheEntries is the current result-cache entry count.
	CacheEntries int64 `json:"cache_entries"`
	// CacheEvictions counts LRU evictions.
	CacheEvictions int64 `json:"cache_evictions"`
}

// WorkerStats is one fleet worker's row in the /v1/stats aggregation.
type WorkerStats struct {
	// Worker is the worker's shard index on the ring.
	Worker int `json:"worker"`
	// Counters is the worker's own counter snapshot.
	Counters ServiceCounters `json:"counters"`
}

// StatsResponse is the GET V1Stats body — self-describing: build identity,
// resolved grids, per-worker counters and their fleet-level sum. A
// single-process server reports itself as one worker and omits Fleet.
type StatsResponse struct {
	// GoVersion is runtime.Version() of the serving binary.
	GoVersion string `json:"go_version"`
	// Grids lists the grid presets resolved so far.
	Grids []string `json:"grids"`
	// Fleet carries the router-level counters (nil on single-process
	// servers).
	Fleet *FleetCounters `json:"fleet,omitempty"`
	// Workers lists each worker's counters (one entry on single-process
	// servers).
	Workers []WorkerStats `json:"workers"`
	// Totals sums the worker counters — the fleet-level aggregate view.
	Totals ServiceCounters `json:"totals"`
}
