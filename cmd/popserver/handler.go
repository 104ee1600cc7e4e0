package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/grid"
)

// handler serves the HTTP surface over either a single solve service or a
// fleet router — exactly one of svc/flt is non-nil.
type handler struct {
	svc *pop.Service
	flt *pop.Fleet
	// reg is the router's metrics registry in a fleet (worker registries
	// are private; /metrics exposes the fleet_* counters).
	reg      *pop.MetricsRegistry
	draining atomic.Bool

	rhsMu    sync.Mutex
	rhsCache map[string][]float64
}

// maxBody bounds request bodies at the largest frame a preset takes: the
// 0.1° grid's B and X0 (8.64 M points each) as raw float64s plus the header
// and grid name, ≈ 138 MB. A larger body is answered 413. JSON spells a
// vector in decimal, several times its frame bytes, so explicit 0.1° vectors
// travel as frames — as the router always forwards them.
var maxBody = func() int64 {
	s := grid.TenthDegreeSpec()
	empty := api.AppendFrameRequest(nil, api.FrameRequest{Grid: grid.PresetTenthDegree, X0: []float64{}})
	return int64(len(empty)) + 2*8*int64(s.Nx*s.Ny)
}()

// solve answers POST V1Solve. It speaks JSON and the binary frame,
// answering in the encoding it was asked in.
func (h *handler) solve(w http.ResponseWriter, r *http.Request) {
	isFrame := strings.HasPrefix(r.Header.Get("Content-Type"), api.ContentTypeFrame)
	if h.draining.Load() {
		err := fmt.Errorf("draining: %w", pop.ErrServiceClosed)
		h.writeError(w, isFrame, statusFor(err), err)
		return
	}
	if r.ContentLength > maxBody {
		h.writeError(w, isFrame, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body of %d bytes exceeds the %d-byte limit", r.ContentLength, maxBody))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		h.writeError(w, isFrame, status, fmt.Errorf("read body: %w", err))
		return
	}
	if isFrame {
		h.solveFrame(w, r, body)
		return
	}
	h.solveJSON(w, r, body)
}

// solveJSON handles the JSON encoding of a solve request.
func (h *handler) solveJSON(w http.ResponseWriter, r *http.Request, body []byte) {
	var req api.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		h.writeError(w, false, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return
	}
	freq, err := req.Parse()
	if err == nil && len(freq.B) == 0 {
		freq.B, err = h.syntheticRHS(freq.Grid, req.RHS)
	}
	if err != nil {
		h.writeError(w, false, statusFor(err), err)
		return
	}
	resp, err := h.dispatch(r.Context(), freq)
	if err != nil {
		h.writeError(w, false, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// solveFrame handles the binary-frame encoding of a solve request.
func (h *handler) solveFrame(w http.ResponseWriter, r *http.Request, body []byte) {
	freq, err := api.DecodeFrameRequest(body)
	if err != nil {
		h.writeError(w, true, statusFor(err), err)
		return
	}
	resp, err := h.dispatch(r.Context(), freq)
	if err != nil {
		h.writeError(w, true, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeFrame)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(api.AppendFrameResponse(nil, resp)); err != nil {
		log.Printf("popserver: frame write: %v", err)
	}
}

// wireErrors is the error → HTTP-status table of the /v1 surface: statusFor
// takes the first row the error matches, for a JSON error body or an error
// frame alike. A malformed frame is a bad request like any other, so
// api.ErrBadFrame shares 400 with pop.ErrBadSpec. Errors no row matches
// (session build failures, a failed eigenvalue estimate) go out as 500.
var wireErrors = []struct {
	target error
	status int
}{
	{pop.ErrOverloaded, http.StatusTooManyRequests}, // queue full: retry later or elsewhere
	{pop.ErrBadSpec, http.StatusBadRequest},
	{api.ErrBadFrame, http.StatusBadRequest},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
	{context.Canceled, 499},                               // client closed request
	{pop.ErrServiceClosed, http.StatusServiceUnavailable}, // draining: try another instance
	{pop.ErrNotConverged, http.StatusUnprocessableEntity},
}

// statusFor maps an error from the solve path onto the HTTP status of its
// error reply (see wireErrors); an error no row matches is a 500.
func statusFor(err error) int {
	for _, row := range wireErrors {
		if errors.Is(err, row.target) {
			return row.status
		}
	}
	return http.StatusInternalServerError
}

// serveRequest is the frame → serve hop: everything of a wire request that
// says what to solve. The rest — deadline, trace ID, response shape, cache
// policy — is dispatch's to act on, not the service's.
func serveRequest(freq api.FrameRequest) pop.ServeRequest {
	return pop.ServeRequest{
		Grid:    freq.Grid,
		Method:  freq.Method,
		Precond: freq.Precond,
		B:       freq.B,
		X0:      freq.X0,
	}
}

// dispatch is the tail both encodings share: it runs one typed request
// through the fleet router or the single service and shapes the wire
// response.
func (h *handler) dispatch(ctx context.Context, freq api.FrameRequest) (api.SolveResponse, error) {
	sreq := serveRequest(freq)
	ctx = pop.ContextWithTraceID(ctx, freq.TraceID)
	if freq.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(freq.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	resp := api.SolveResponse{Shard: -1}
	var sres pop.ServeResponse
	if h.flt != nil {
		fres, err := h.flt.Solve(ctx, pop.FleetRequest{Request: sreq, NoCache: freq.NoCache})
		if err != nil {
			return api.SolveResponse{}, err
		}
		sres = fres.Response
		resp.Cache = fres.Cache
		resp.Shard = fres.Shard
	} else {
		var err error
		if sres, err = h.svc.Solve(ctx, sreq); err != nil {
			return api.SolveResponse{}, err
		}
	}
	resp.Converged = sres.Result.Converged
	resp.Iterations = sres.Result.Iterations
	resp.RelResidual = sres.Result.RelResidual
	resp.Solver = sres.Result.Solver
	resp.TraceID = sres.TraceID
	resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if freq.ReturnX {
		resp.X = sres.X
	}
	return resp, nil
}

// syntheticRHS resolves a named right-hand-side generator for requests that
// carry no explicit vector, caching the result per grid (the generators are
// pure functions of the grid). The probe client uses the same generator
// locally so its requests content-hash identically across runs.
func (h *handler) syntheticRHS(gridName, gen string) ([]float64, error) {
	if gen == "" {
		gen = "smooth"
	}
	if gen != "smooth" {
		return nil, &api.FieldError{Field: "rhs", Value: gen, Accepted: []string{"smooth"}}
	}
	if gridName == "" {
		gridName = "test"
	}
	h.rhsMu.Lock()
	defer h.rhsMu.Unlock()
	if b, ok := h.rhsCache[gridName]; ok {
		return b, nil
	}
	g, err := pop.NewGrid(gridName)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, pop.ErrBadSpec)
	}
	b := smoothRHS(g)
	if h.rhsCache == nil {
		h.rhsCache = make(map[string][]float64)
	}
	h.rhsCache[gridName] = b
	return b, nil
}

// smoothRHS builds the deterministic smooth forcing used when a request
// names the "smooth" generator: a low-wavenumber field over the grid
// coordinates.
func smoothRHS(g *pop.Grid) []float64 {
	b := make([]float64, len(g.TLon))
	for k := range b {
		b[k] = math.Sin(g.TLon[k]/20) * math.Cos(g.TLat[k]/15)
	}
	return b
}

// healthV1 answers GET V1Health with the JSON health body.
func (h *handler) healthV1(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if h.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, api.HealthResponse{Status: status})
}

// stats answers GET V1Stats. A fleet aggregates: router counters, one
// row per worker, summed totals. Single mode reports itself as one worker.
func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	var resp api.StatsResponse
	if h.flt != nil {
		resp = h.flt.Stats(r.Context())
	} else {
		c := h.svc.Snapshot()
		resp.Grids = h.svc.Grids()
		resp.Workers = []api.WorkerStats{{Worker: 0, Counters: c}}
		resp.Totals = c
	}
	resp.GoVersion = runtime.Version()
	if resp.Grids == nil {
		resp.Grids = []string{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// metrics serves the Prometheus text exposition: the service registry in
// single mode, the router's fleet_* registry in a fleet.
func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	reg := h.reg
	if h.flt == nil {
		reg = h.svc.Registry()
	}
	if err := reg.WritePrometheus(w); err != nil {
		log.Printf("popserver: metrics write: %v", err)
	}
}

// writePerfetto renders the Perfetto export: all sessions' rank spans plus
// request records, merged fleet-wide in a fleet.
func (h *handler) writePerfetto(w io.Writer) error {
	if h.flt != nil {
		return h.flt.WritePerfetto(w)
	}
	return h.svc.WritePerfetto(w)
}

// trace serves the Perfetto export.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := h.writePerfetto(w); err != nil {
		log.Printf("popserver: trace write: %v", err)
	}
}

// flight serves the flight-recorder snapshot: a JSON object whose one key,
// "recent", holds the ring's request records, oldest first (a fleet merges
// the router's and every worker's rings).
func (h *handler) flight(w http.ResponseWriter, r *http.Request) {
	var recs []pop.RequestRecord
	if h.flt != nil {
		recs = h.flt.FlightRecords()
	} else {
		recs = h.svc.Flight().Recent()
	}
	if recs == nil {
		recs = []pop.RequestRecord{}
	}
	writeJSON(w, http.StatusOK, map[string][]pop.RequestRecord{"recent": recs})
}

// close drains whichever serving stack is active.
func (h *handler) close(ctx context.Context) error {
	if h.flt != nil {
		return h.flt.Close(ctx)
	}
	return h.svc.Close(ctx)
}

// writeError replies in the encoding the request spoke: a JSON ErrorBody
// (with Field/Accepted populated for enum validation failures, so a 400
// tells the client how to fix itself) or a binary error frame.
func (h *handler) writeError(w http.ResponseWriter, isFrame bool, status int, err error) {
	if isFrame {
		w.Header().Set("Content-Type", api.ContentTypeFrame)
		w.WriteHeader(status)
		if _, werr := w.Write(api.AppendFrameError(nil, status, err.Error())); werr != nil {
			log.Printf("popserver: frame write: %v", werr)
		}
		return
	}
	body := api.ErrorBody{Error: err.Error()}
	var fe *api.FieldError
	if errors.As(err, &fe) {
		body.Field = fe.Field
		body.Accepted = fe.Accepted
	}
	writeJSON(w, status, body)
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("popserver: json write: %v", err)
	}
}
