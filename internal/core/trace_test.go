package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

// skewedCost prices flops with a per-rank skew so reductions have a
// deterministic straggler and every span has nonzero width.
type skewedCost struct{}

func (skewedCost) FlopTime(n int64, rank int, _ int64) float64 {
	return float64(n) * (1 + 0.1*float64(rank)) * 1e-9
}
func (skewedCost) P2PTime(bytes int64) float64   { return 1e-6 + float64(bytes)*1e-9 }
func (skewedCost) ReduceTime(int, int64) float64 { return 2e-6 }

// checkTracks holds one solve's rank tracks to the trace contract: one track
// per rank; within each run_begin segment the rank's clock never runs
// backwards and every span closes after it opens and before the next event
// starts, so no span straddles a segment boundary (tol absorbs the µs
// round-trip of a file); every reduce span names a valid straggler and a
// non-negative wait; every residual point carries its iteration and value;
// and the solver events the paper's figures need are all present.
func checkTracks(t *testing.T, tracks []obs.Track, nranks int, tol float64) {
	t.Helper()
	if len(tracks) != nranks {
		t.Errorf("trace has %d tracks, want one per rank (%d)", len(tracks), nranks)
	}
	seen := make(map[string]int)
	for rank, tr := range tracks {
		if tr.TID != rank {
			t.Errorf("track %d is rank %d", rank, tr.TID)
		}
		if len(tr.Events) == 0 || tr.Events[0].Name != obs.EvRunBegin {
			t.Fatalf("rank %d: track does not open with run_begin", rank)
		}
		lastT := 0.0
		for i, e := range tr.Events {
			seen[e.Name]++
			if e.Rank != rank {
				t.Fatalf("rank %d event %d: stamped rank %d", rank, i, e.Rank)
			}
			if e.Name == obs.EvRunBegin {
				lastT = 0 // new run segment: the virtual clock restarts
			}
			end := e.T0
			if !e.Point {
				end = e.T1
			}
			if e.T0 < lastT-tol || end < e.T0 {
				t.Fatalf("rank %d event %d (%s): clock ran backwards ([%g, %g] after %g)",
					rank, i, e.Name, e.T0, end, lastT)
			}
			lastT = end
			switch e.Name {
			case obs.EvReduce:
				if e.Point || e.Straggler < 0 || e.Straggler >= nranks || e.Wait < 0 {
					t.Fatalf("rank %d event %d: reduce span without valid straggler/wait: %+v", rank, i, e)
				}
			case obs.EvResidual:
				if !e.Point || e.Iter < 1 || !(e.Value >= 0) {
					t.Fatalf("rank %d event %d: residual point without iter/value: %+v", rank, i, e)
				}
			}
		}
	}
	for _, name := range []string{obs.EvCompute, obs.EvHalo, obs.EvReduce, obs.EvResidual, obs.EvEigBound, obs.EvRunBegin} {
		if seen[name] == 0 {
			t.Errorf("trace has no %q events (saw %v)", name, seen)
		}
	}
}

// near reports a == b up to the rounding of a seconds → µs → seconds trip.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12+1e-12*math.Abs(b) }

// The golden trace contract, held on the tracer's own tracks and again on
// what ReadPerfetto rebuilds from the file WritePerfetto wrote for the same
// solve — the one pipeline every command's trace leaves through. The file
// must carry every event back field for field, and the straggler league
// poptrace computes from it must be the league computed in process.
func TestSolveTracePerfettoGolden(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal, Tol: 1e-10})
	tracer := obs.NewTracer(1 << 16)
	f.w.Cost = skewedCost{}
	f.w.Tracer = tracer
	defer func() { f.w.Tracer = nil; f.w.Cost = nil }()

	res, _, err := s.Solve(MethodPCSI, f.b, make([]float64, len(f.b)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("test solve did not converge: %+v", res)
	}

	// The Result-attached trace: residual history and eigenvalue bounds.
	if res.Trace == nil || len(res.Trace.Residuals) == 0 {
		t.Fatal("Result.Trace has no residual history")
	}
	prevIter := 0
	for _, p := range res.Trace.Residuals {
		if p.Iter <= prevIter {
			t.Fatalf("residual iters not increasing: %+v", res.Trace.Residuals)
		}
		prevIter = p.Iter
		if p.RelResidual < 0 {
			t.Fatalf("negative residual: %+v", p)
		}
	}
	last := res.Trace.Residuals[len(res.Trace.Residuals)-1]
	if last.RelResidual != res.RelResidual {
		t.Fatalf("last traced residual %g != Result.RelResidual %g", last.RelResidual, res.RelResidual)
	}
	if len(res.Trace.EigBounds) == 0 {
		t.Fatal("P-CSI trace has no Lanczos bound evolution")
	}

	if tracer.Dropped() > 0 {
		t.Fatalf("ring dropped %d events; raise the test capacity", tracer.Dropped())
	}
	tracks := tracer.Tracks("golden", 1)
	checkTracks(t, tracks, f.d.NRanks, 0)

	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, tracks, nil, 0); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkTracks(t, pt.Tracks, f.d.NRanks, 1e-12)
	for r, want := range tracks {
		got := pt.Tracks[r]
		if got.Process != want.Process || got.Thread != want.Thread || got.PID != want.PID ||
			len(got.Events) != len(want.Events) {
			t.Fatalf("track %d came back as %q/%q pid %d with %d events, want %q/%q pid %d with %d",
				r, got.Process, got.Thread, got.PID, len(got.Events),
				want.Process, want.Thread, want.PID, len(want.Events))
		}
		for i, w := range want.Events {
			g := got.Events[i]
			if w.Point {
				w.T1 = w.T0 // a point has no end; the file carries its timestamp only
			}
			if !near(g.T0, w.T0) || !near(g.T1, w.T1) || !near(g.Wait, w.Wait) {
				t.Fatalf("track %d event %d: times came back as %+v, want %+v", r, i, g, w)
			}
			g.T0, g.T1, g.Wait = w.T0, w.T1, w.Wait
			if g != w {
				t.Fatalf("track %d event %d: came back as %+v, want %+v", r, i, g, w)
			}
		}
	}

	// One straggler league, two inputs. The skewed cost model makes the
	// standings non-trivial: somebody arrives last, everybody else waits.
	inProc, fromFile := obs.StragglerLeague(tracks), obs.StragglerLeague(pt.Tracks)
	if len(inProc) != f.d.NRanks || len(fromFile) != len(inProc) {
		t.Fatalf("league has %d rows in process, %d from the file, want %d", len(inProc), len(fromFile), f.d.NRanks)
	}
	if inProc[0].Straggled == 0 || inProc[len(inProc)-1].WaitTotal <= 0 {
		t.Errorf("skewed cost produced no straggler: top %+v, bottom %+v", inProc[0], inProc[len(inProc)-1])
	}
	for i, w := range inProc {
		g := fromFile[i]
		if !near(g.WaitTotal, w.WaitTotal) || !near(g.WaitMean, w.WaitMean) {
			t.Errorf("league row %d: waits from the file %+v, in process %+v", i, g, w)
		}
		g.WaitTotal, g.WaitMean = w.WaitTotal, w.WaitMean
		if g != w {
			t.Errorf("league row %d: from the file %+v, in process %+v", i, g, w)
		}
	}
}

// A solve carries its own context's trace ID, never the previous solve's: a
// plain Solve after a traced SolveContext on the same session reports ID 0
// and stamps none of its events with the earlier request's ID.
func TestTraceIDNotInheritedAcrossSolves(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal, Tol: 1e-10})
	tracer := obs.NewTracer(1 << 16)
	f.w.Tracer = tracer
	defer func() { f.w.Tracer = nil }()

	const id = 4242
	res, _, err := s.SolveContext(obs.ContextWithTraceID(context.Background(), id), MethodChronGear, f.b, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced := len(tracer.EventsFor(id))
	if res.TraceID != id || traced == 0 {
		t.Fatalf("traced solve: Result.TraceID %d with %d events stamped, want %d and some", res.TraceID, traced, id)
	}
	res, _, err = s.Solve(MethodChronGear, f.b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != 0 {
		t.Errorf("untraced solve after a traced one: Result.TraceID %d, want 0", res.TraceID)
	}
	if n := len(tracer.EventsFor(id)); n != traced {
		t.Errorf("untraced solve stamped %d of its events with the previous request's ID", n-traced)
	}
}

// Disabled tracing must leave Result telemetry intact: the SolveTrace is
// recorded unconditionally (appends only at convergence checks).
func TestSolveTraceWithoutTracer(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal})
	res, _, err := s.Solve(MethodChronGear, f.b, make([]float64, len(f.b)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Residuals) == 0 {
		t.Fatal("SolveTrace missing with tracing disabled")
	}
}
