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

// countersFromStats converts a serve counter snapshot to its wire form.
func countersFromStats(s serve.Stats) api.ServiceCounters {
	return api.ServiceCounters{
		Requests:    s.Requests,
		Shed:        s.Shed,
		Expired:     s.Expired,
		Solves:      s.Solves,
		Batches:     s.Batches,
		Errors:      s.Errors,
		Sessions:    s.Sessions,
		Retried:     s.Retried,
		Faulted:     s.Faulted,
		Recovered:   s.Recovered,
		CircuitShed: s.CircuitShed,
	}
}

// LocalWorker is an in-process shard: its own serve.Service with its own
// session pools, queues, circuit breakers and retry budget — the same
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
	return countersFromStats(w.svc.Snapshot()), w.svc.Grids(), nil
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

// Solve encodes the request as a binary frame, POSTs it to the worker's
// /v1/solve, and decodes the reply. Remote error frames are mapped back to
// the service's typed errors (429 → ErrOverloaded and 503 → ErrCircuitOpen
// / ErrClosed) so the router's failover logic treats a remote shed exactly
// like a local one.
func (w *HTTPWorker) Solve(ctx context.Context, req serve.Request) (serve.Response, error) {
	frame := api.AppendFrameRequest(nil, api.FrameRequest{
		Grid:    req.Grid,
		Method:  req.Method,
		Precond: req.Precond,
		SStep:   req.SStep,
		B:       req.B,
		X0:      req.X0,
		ReturnX: true,
		TraceID: obs.TraceIDFromContext(ctx),
	})
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

// remoteError reconstructs a typed error from a worker's error frame so
// errors.Is keeps working across the wire.
func remoteError(base string, status int, msg string) error {
	var cause error
	switch status {
	case http.StatusTooManyRequests:
		cause = serve.ErrOverloaded
	case http.StatusBadRequest:
		cause = core.ErrBadSpec
	case http.StatusServiceUnavailable:
		cause = serve.ErrCircuitOpen
	case http.StatusGatewayTimeout:
		cause = context.DeadlineExceeded
	case http.StatusUnprocessableEntity:
		cause = core.ErrNotConverged
	default:
		cause = fmt.Errorf("status %d: %w", status, ErrRemote)
	}
	return fmt.Errorf("fleet: worker %s: %s: %w", base, msg, cause)
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
