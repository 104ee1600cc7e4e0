package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
)

// tracedService builds a traced service on the test grid with a priced
// machine model, so solves carry nonzero virtual compute/halo/reduce splits.
func tracedService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.TraceCapacity == 0 {
		opts.TraceCapacity = 1 << 14
	}
	return chaosService(t, opts.Injector, opts)
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
	b := chaosRHS(t)
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
	b := chaosRHS(t)
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b}
	solve := func(opts Options) Response {
		svc := chaosService(t, nil, opts)
		resp, err := svc.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plain := solve(Options{Solver: core.Options{Tol: 1e-10}})
	traced := solve(Options{Solver: core.Options{Tol: 1e-10},
		TraceCapacity: 1 << 12, FlightRing: 64, LatencySLO: time.Hour})

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

// readFlightDump loads and decodes one incident dump file.
func readFlightDump(t *testing.T, path string) obs.FlightDump {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("%s is not a valid flight dump: %v", path, err)
	}
	return dump
}

// globDumps returns the flight dump files for one trigger reason.
func globDumps(t *testing.T, dir, reason string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "flight-*-"+reason+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFlightDumpOnFaultRecovery: a request that faults beyond the retry
// budget triggers a "fault_recovery" dump whose offending record and
// rank-level spans carry that request's trace ID.
func TestFlightDumpOnFaultRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(faults.Plan{Seed: 13, CrashProb: 0.95})
	svc := tracedService(t, Options{
		Injector:  inj,
		FlightDir: dir,
		Solver:    core.Options{Tol: 1e-8, MaxIters: 300, MaxRecoveries: 2},
	})
	id := obs.NewTraceID()
	ctx := obs.ContextWithTraceID(context.Background(), id)
	_, err := svc.Solve(ctx,
		Request{Method: core.MethodChronGear, Precond: core.PrecondDiagonal, B: chaosRHS(t)})
	if !errors.Is(err, core.ErrFaulted) {
		t.Fatalf("crash storm returned %v, want ErrFaulted", err)
	}

	files := globDumps(t, dir, "fault_recovery")
	if len(files) == 0 {
		t.Fatal("no fault_recovery dump written")
	}
	dump := readFlightDump(t, files[0])
	if dump.Reason != "fault_recovery" {
		t.Errorf("reason: %q", dump.Reason)
	}
	if dump.Offending.TraceID != id {
		t.Errorf("offending trace: got %d, want %d", dump.Offending.TraceID, id)
	}
	if dump.Offending.Error == "" {
		t.Error("offending record carries no error")
	}
	if len(dump.Events) == 0 {
		t.Fatal("dump has no rank-level spans for the offending request")
	}
	for _, e := range dump.Events {
		if e.Trace != id {
			t.Fatalf("dump span from foreign trace %d (want %d): %+v", e.Trace, id, e)
		}
	}
	if len(dump.Recent) == 0 {
		t.Error("dump has no recent-request ring")
	}
	if dump.Metrics == "" {
		t.Error("dump has no metrics snapshot")
	}
}

// TestFlightDumpOnSLOBreach: a latency objective of one nanosecond makes
// every request a breach; the dump carries the measured total.
func TestFlightDumpOnSLOBreach(t *testing.T) {
	dir := t.TempDir()
	svc := tracedService(t, Options{
		LatencySLO: time.Nanosecond,
		FlightDir:  dir,
		Solver:     core.Options{Tol: 1e-10},
	})
	if _, err := svc.Solve(context.Background(),
		Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: chaosRHS(t)}); err != nil {
		t.Fatal(err)
	}
	files := globDumps(t, dir, "slo_breach")
	if len(files) == 0 {
		t.Fatal("no slo_breach dump written")
	}
	dump := readFlightDump(t, files[0])
	if dump.Offending.TotalNS <= 0 {
		t.Errorf("breach dump total %dns, want > 0", dump.Offending.TotalNS)
	}
	if !dump.Offending.Converged {
		t.Errorf("breach dump request did not converge: %+v", dump.Offending)
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
	b := chaosRHS(t)
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
	svc := chaosService(t, nil, Options{Solver: core.Options{Tol: 1e-8}})
	if _, err := svc.Solve(context.Background(),
		Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: chaosRHS(t)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
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
	svc := chaosService(t, nil, Options{Solver: core.Options{Tol: 1e-8}})
	if _, err := svc.Solve(context.Background(),
		Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: chaosRHS(t)}); err != nil {
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
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: chaosRHS(t)}
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
	if err := svc.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sb.Bytes(), []byte("obs_trace_dropped_total")) {
		t.Errorf("exposition missing obs_trace_dropped_total:\n%s", sb.String())
	}
}
