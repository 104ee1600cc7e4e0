package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
)

// gridRHS builds one deterministic right-hand side on the test grid.
func gridRHS(t *testing.T) []float64 {
	t.Helper()
	g, err := grid.ByName(grid.PresetTest)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			x := uint64(k)*2654435761 + 0x9E3779B9
			x ^= x >> 13
			b[k] = float64(x%1000)/500 - 1
		}
	}
	return b
}

// newService builds a service with the given options, closed when the test
// ends.
func newService(t *testing.T, opts Options) *Service {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// tracedService builds a traced service on the test grid with a priced
// machine model, so solves carry nonzero virtual compute/halo/reduce splits.
func tracedService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.TraceCapacity == 0 {
		opts.TraceCapacity = 1 << 14
	}
	return newService(t, opts)
}

// TestTracedRequestAttribution is the tracing acceptance test: one traced
// request yields a correlated span tree across every rank, and its
// critical-path attribution (admit + queue + batch-wait + compute + halo +
// reduce + slack) sums to within 5% of the latency the caller measured.
func TestTracedRequestAttribution(t *testing.T) {
	svc := tracedService(t, Options{
		Cores:       4,
		MachineName: "yellowstone",
		Solver:      core.Options{Tol: 1e-10},
	})
	b := gridRHS(t)
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b}

	// Warm the pool so the measured requests pay steady-state latency only.
	// The warm-up carries no trace ID, so the service mints one.
	warm, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Several sequential requests with caller-chosen trace IDs; scheduling
	// noise can inflate any one sample, so the 5% criterion must hold for
	// the best (and typically every) request.
	const tries = 5
	type sample struct {
		id      uint64
		latency float64 // caller-measured seconds
	}
	samples := make([]sample, 0, tries)
	for i := 0; i < tries; i++ {
		id := obs.NewTraceID()
		ctx := obs.ContextWithTraceID(context.Background(), id)
		t0 := time.Now()
		resp, err := svc.Solve(ctx, req)
		lat := time.Since(t0).Seconds()
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if resp.TraceID != id {
			t.Fatalf("response trace ID %d, want the context's %d", resp.TraceID, id)
		}
		samples = append(samples, sample{id: id, latency: lat})
	}

	var buf bytes.Buffer
	if err := svc.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ReadPerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	recOf := make(map[uint64]obs.RequestRecord, len(pt.Requests))
	for _, rec := range pt.Requests {
		recOf[rec.TraceID] = rec
	}
	best := math.Inf(1)
	for _, s := range samples {
		rec, ok := recOf[s.id]
		if !ok {
			t.Fatalf("trace %d has no request record in the export", s.id)
		}
		a := obs.AttributeRecord(rec)
		// Internal consistency: the phases decompose the record's own
		// wall-clock total exactly up to the response hand-off.
		if cov := a.Coverage(); cov <= 0 || cov > 1.0000001 {
			t.Errorf("trace %d: coverage %.4f outside (0, 1]", s.id, cov)
		}
		// Priced model: the solve must split beyond pure compute.
		if a.Halo <= 0 || a.Reduce <= 0 {
			t.Errorf("trace %d: priced model gave no halo/reduce attribution: %+v", s.id, a)
		}
		if dev := math.Abs(1 - a.Sum()/s.latency); dev < best {
			best = dev
		}
	}
	if best > 0.05 {
		t.Errorf("no request's attribution summed within 5%% of measured latency (best dev %.1f%%)",
			best*100)
	}

	// One request = one correlated span tree: rank-level spans stamped with
	// the trace ID must appear on every rank of the serving session.
	want := recOf[samples[0].id].Ranks
	if want < 2 {
		t.Fatalf("expected a multi-rank session, got %d ranks", want)
	}
	for _, id := range []uint64{samples[0].id, warm.TraceID} {
		ranksSeen := map[int]bool{}
		for _, tr := range pt.Tracks {
			for _, e := range tr.Events {
				if e.Trace == id {
					ranksSeen[tr.TID] = true
				}
			}
		}
		if id == 0 || len(ranksSeen) != want {
			t.Errorf("trace %d spans cover %d ranks, want %d", id, len(ranksSeen), want)
		}
	}
	// And the file renders the request's serve-layer phases on the serve
	// process, on the thread named by the same ID.
	var file struct {
		TraceEvents []struct {
			Ph       string
			PID, TID int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	serveSpans := 0
	for _, e := range file.TraceEvents {
		if e.PID == obs.ServePID && e.TID == int(samples[0].id) && e.Ph == "X" {
			serveSpans++
		}
	}
	if serveSpans == 0 {
		t.Errorf("trace %d has no serve-layer phase spans", samples[0].id)
	}
}

// TestTracingDoesNotPerturbSolutions: enabling tracing and the flight
// recorder must leave the solve bitwise identical — the golden-trace
// guarantee with instrumentation on.
func TestTracingDoesNotPerturbSolutions(t *testing.T) {
	b := gridRHS(t)
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b}
	solve := func(opts Options) Response {
		svc := newService(t, opts)
		resp, err := svc.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plain := solve(Options{Solver: core.Options{Tol: 1e-10}})
	traced := solve(Options{Solver: core.Options{Tol: 1e-10}, TraceCapacity: 1 << 12})

	if plain.Result.Iterations != traced.Result.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d",
			plain.Result.Iterations, traced.Result.Iterations)
	}
	if plain.Result.RelResidual != traced.Result.RelResidual {
		t.Fatalf("residuals differ bitwise: %x vs %x",
			math.Float64bits(plain.Result.RelResidual), math.Float64bits(traced.Result.RelResidual))
	}
	for i := range plain.X {
		if math.Float64bits(plain.X[i]) != math.Float64bits(traced.X[i]) {
			t.Fatalf("solution differs bitwise at %d: %x vs %x",
				i, math.Float64bits(plain.X[i]), math.Float64bits(traced.X[i]))
		}
	}
}

// TestPerfettoExportDuringLoad races concurrent solves against repeated
// exports; slot.mu must keep the single-writer rank rings quiescent while
// they are read (checked under -race).
func TestPerfettoExportDuringLoad(t *testing.T) {
	svc := tracedService(t, Options{
		TraceCapacity: 1 << 10,
		Solver:        core.Options{Tol: 1e-8},
	})
	b := gridRHS(t)
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b}
	if _, err := svc.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := svc.Solve(context.Background(), req); err != nil {
					t.Errorf("solve under export: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := svc.WritePerfetto(io.Discard); err != nil {
				t.Errorf("export under load: %v", err)
			}
		}
	}()
	wg.Wait()
	// A final export must parse and contain every request record.
	var buf bytes.Buffer
	if err := svc.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Requests) != 41 {
		t.Errorf("final export: got %d request records, want 41", len(pt.Requests))
	}
}

// TestQueueDepthMetrics: the current-depth gauge and the peak gauge are both
// exposed, and the peak's help string documents its no-reset semantics.
func TestQueueDepthMetrics(t *testing.T) {
	svc := newService(t, Options{Solver: core.Options{Tol: 1e-8}})
	if _, err := svc.Solve(context.Background(),
		Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: gridRHS(t)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"serve_queue_depth ",
		"serve_queue_depth_peak ",
		"never resets",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestLatencyCoversAdmission: serve_latency_seconds is admission to response,
// so a key's first request — whose admission builds the session — lands in
// the histogram with at least the latency its own flight record measured
// (admission included), not the queue-to-response remainder.
func TestLatencyCoversAdmission(t *testing.T) {
	svc := newService(t, Options{Solver: core.Options{Tol: 1e-8}})
	if _, err := svc.Solve(context.Background(),
		Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: gridRHS(t)}); err != nil {
		t.Fatal(err)
	}
	rec := svc.Flight().Recent()[0]
	if rec.AdmitNS <= 0 || rec.TotalNS < rec.AdmitNS {
		t.Fatalf("first request's record has no admission phase: %+v", rec)
	}
	if got := svc.m.latency.Sum(); svc.m.latency.Count() != 1 || got < float64(rec.TotalNS)/1e9 {
		t.Errorf("latency histogram holds %d samples summing to %gs; the request's record measured %gs (admission %gs)",
			svc.m.latency.Count(), got, float64(rec.TotalNS)/1e9, float64(rec.AdmitNS)/1e9)
	}
}

// TestTraceDroppedExported: a tiny ring under sustained solves wraps, and
// export publishes the drop count both into obs_trace_dropped_total and the
// Perfetto file's otherData.
func TestTraceDroppedExported(t *testing.T) {
	svc := tracedService(t, Options{
		TraceCapacity: 8, // deliberately tiny: guaranteed wraparound
		Solver:        core.Options{Tol: 1e-8},
	})
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: gridRHS(t)}
	for i := 0; i < 3; i++ {
		if _, err := svc.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := svc.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Dropped == 0 {
		t.Fatal("tiny ring reported no drops")
	}
	var sb bytes.Buffer
	if err := svc.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nobs_trace_dropped_total %d\n", pt.Dropped); !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want[1:], sb.String())
	}
}
