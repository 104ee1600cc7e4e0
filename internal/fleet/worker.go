package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ErrRemote marks failures talking to a remote worker that carry no more
// specific typed cause (unexpected HTTP statuses, malformed stats bodies).
// Match with errors.Is.
var ErrRemote = errors.New("fleet: remote worker error")

// Worker is one solve shard behind the router. Two implementations: a
// LocalWorker wrapping an in-process serve.Service, and an HTTPWorker
// speaking the binary frame to a remote popserver.
type Worker interface {
	// Solve runs one request on the worker, blocking until it completes.
	Solve(ctx context.Context, req serve.Request) (serve.Response, error)
	// Counters snapshots the worker's serving counters and the grid
	// presets it has resolved.
	Counters(ctx context.Context) (api.ServiceCounters, []string, error)
	// Addr identifies the worker in stats rows: "local" for in-process
	// workers, the base URL for remote ones.
	Addr() string
	// Close releases the worker's resources, draining in-flight work.
	Close(ctx context.Context) error
}

// LocalWorker is an in-process shard: its own serve.Service with its own
// session pools, queues and request retry — the same
// isolation a separate popserver process would have, minus the wire.
type LocalWorker struct {
	svc *serve.Service
}

// NewLocalWorker wraps an in-process service. The service should have been
// built with its own private metrics registry: obs counters dedupe by name
// within a registry, so two workers sharing one registry would silently
// share counters.
func NewLocalWorker(svc *serve.Service) *LocalWorker { return &LocalWorker{svc: svc} }

// Solve runs the request on the wrapped service.
func (w *LocalWorker) Solve(ctx context.Context, req serve.Request) (serve.Response, error) {
	return w.svc.Solve(ctx, req)
}

// Counters snapshots the wrapped service's counters and grids.
func (w *LocalWorker) Counters(ctx context.Context) (api.ServiceCounters, []string, error) {
	_ = ctx // local snapshot; the ctx exists for interface symmetry with HTTPWorker
	return w.svc.Snapshot(), w.svc.Grids(), nil
}

// Addr returns "local".
func (w *LocalWorker) Addr() string { return "local" }

// Close drains the wrapped service.
func (w *LocalWorker) Close(ctx context.Context) error { return w.svc.Close(ctx) }

// Service exposes the wrapped service for trace export and flight-record
// merging.
func (w *LocalWorker) Service() *serve.Service { return w.svc }

// HTTPWorker is a remote shard: a popserver reached over HTTP, spoken to
// in the compact binary frame (api.ContentTypeFrame) on the solve hot path
// and JSON for stats.
type HTTPWorker struct {
	base   string
	client *http.Client
}

// NewHTTPWorker builds a worker for a remote popserver at base (e.g.
// "http://127.0.0.1:7071"). client nil uses http.DefaultClient.
func NewHTTPWorker(base string, client *http.Client) *HTTPWorker {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPWorker{base: base, client: client}
}

// Addr returns the worker's base URL.
func (w *HTTPWorker) Addr() string { return w.base }

// Close is a no-op: the remote process has its own lifecycle.
func (w *HTTPWorker) Close(ctx context.Context) error {
	_ = ctx // nothing to drain; the remote owns its shutdown
	return nil
}

// frameRequest is the serve → frame hop: the solve a remote worker is asked
// for, always with its solution vector, under the router's trace ID. The
// deadline travels as the HTTP request's context and the cache is the
// router's own, so the frame's TimeoutMS and NoCache stay zero.
func frameRequest(req serve.Request, traceID uint64) api.FrameRequest {
	return api.FrameRequest{
		Grid:    req.Grid,
		Method:  req.Method,
		Precond: req.Precond,
		SStep:   req.SStep,
		B:       req.B,
		X0:      req.X0,
		ReturnX: true,
		TraceID: traceID,
	}
}

// Solve encodes the request as a binary frame, POSTs it to the worker's
// /v1/solve, and decodes the reply. Remote error frames are mapped back to
// the service's typed errors through wireErrors, so the router's failover
// logic treats a remote shed exactly like a local one.
func (w *HTTPWorker) Solve(ctx context.Context, req serve.Request) (serve.Response, error) {
	frame := api.AppendFrameRequest(nil, frameRequest(req, obs.TraceIDFromContext(ctx)))
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+api.V1Solve, bytes.NewReader(frame))
	if err != nil {
		return serve.Response{}, fmt.Errorf("fleet: worker %s: %w", w.base, err)
	}
	hreq.Header.Set("Content-Type", api.ContentTypeFrame)
	hresp, err := w.client.Do(hreq)
	if err != nil {
		return serve.Response{}, fmt.Errorf("fleet: worker %s: %w", w.base, err)
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		return serve.Response{}, fmt.Errorf("fleet: worker %s: %w", w.base, err)
	}
	kind, err := api.FrameKind(raw)
	if err != nil {
		return serve.Response{}, fmt.Errorf("fleet: worker %s: %w", w.base, err)
	}
	if kind == api.FrameError {
		status, msg, err := api.DecodeFrameError(raw)
		if err != nil {
			return serve.Response{}, fmt.Errorf("fleet: worker %s: %w", w.base, err)
		}
		return serve.Response{}, remoteError(w.base, status, msg)
	}
	fr, err := api.DecodeFrameResponse(raw)
	if err != nil {
		return serve.Response{}, fmt.Errorf("fleet: worker %s: %w", w.base, err)
	}
	// A remote worker's Result is the wire summary: solution bits and
	// convergence metadata are exact; virtual-time stats and per-iteration
	// traces stay on the worker (its own flight recorder retains them).
	return serve.Response{
		Result: core.Result{
			Solver:      fr.Solver,
			Iterations:  fr.Iterations,
			Converged:   fr.Converged,
			RelResidual: fr.RelResidual,
			TraceID:     fr.TraceID,
		},
		X:       fr.X,
		TraceID: fr.TraceID,
	}, nil
}

// wireErrors is the one error ↔ HTTP-status table of the /v1 surface, kept
// here because fleet is the package that sees serve, core and api errors.
// Both directions read it: StatusFor (popserver, for a JSON error body or an
// error frame) takes the first row the error matches, remoteError (an
// HTTPWorker decoding an error frame) the first row carrying the frame's
// status — so a typed error crosses the frame hop as itself, and the
// router's failover and a caller's errors.Is see what a local worker would
// have returned. A status appears once, with one exception: a malformed
// frame is a bad request like any other, so api.ErrBadFrame shares 400 and
// comes back as core.ErrBadSpec. Errors no row matches (session build
// failures, core.ErrEigEstimate, a router's own ErrRemote) go out as 500
// and come back wrapping ErrRemote, message intact.
var wireErrors = []struct {
	target error
	status int
}{
	{serve.ErrOverloaded, http.StatusTooManyRequests}, // queue full: retry later or elsewhere
	{core.ErrBadSpec, http.StatusBadRequest},
	{api.ErrBadFrame, http.StatusBadRequest},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
	{context.Canceled, 499},                          // client closed request
	{serve.ErrClosed, http.StatusServiceUnavailable}, // draining: try another instance
	{core.ErrNotConverged, http.StatusUnprocessableEntity},
	{core.ErrFaulted, http.StatusBadGateway}, // the solve's virtual machine failed, not the server
}

// StatusFor maps an error from the solve path onto the HTTP status of its
// error reply (see wireErrors); an error no row matches is a 500.
func StatusFor(err error) int {
	for _, row := range wireErrors {
		if errors.Is(err, row.target) {
			return row.status
		}
	}
	return http.StatusInternalServerError
}

// remoteError reconstructs a typed error from a worker's error frame — the
// inverse of StatusFor — so errors.Is keeps working across the wire.
func remoteError(base string, status int, msg string) error {
	for _, row := range wireErrors {
		if row.status == status {
			return fmt.Errorf("fleet: worker %s: %s: %w", base, msg, row.target)
		}
	}
	return fmt.Errorf("fleet: worker %s: %s: status %d: %w", base, msg, status, ErrRemote)
}

// Counters fetches the worker's /v1/stats and returns its own counters and
// grids (a remote popserver reports itself as one worker).
func (w *HTTPWorker) Counters(ctx context.Context) (api.ServiceCounters, []string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+api.V1Stats, nil)
	if err != nil {
		return api.ServiceCounters{}, nil, err
	}
	hresp, err := w.client.Do(hreq)
	if err != nil {
		return api.ServiceCounters{}, nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return api.ServiceCounters{}, nil, fmt.Errorf("fleet: worker %s stats: status %d: %w", w.base, hresp.StatusCode, ErrRemote)
	}
	var stats api.StatsResponse
	if err := decodeJSON(hresp.Body, &stats); err != nil {
		return api.ServiceCounters{}, nil, fmt.Errorf("fleet: worker %s stats: %w", w.base, err)
	}
	return stats.Totals, stats.Grids, nil
}

// decodeJSON decodes one JSON value from r.
func decodeJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }
