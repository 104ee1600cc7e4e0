package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// buildTracks fabricates two rank tracks whose virtual clocks restart at
// zero across two run segments — the exporter must still emit monotone
// timestamps per track.
func buildTracks() []obs.Track {
	mk := func(rank int) obs.Track {
		var evs []obs.Event
		for run := 0; run < 2; run++ {
			// Aux carries the worker shard; rank 0 on shard 0 exercises the
			// unconditional shard arg (zero must still be exported).
			evs = append(evs, obs.Event{Rank: rank, Name: obs.EvRunBegin, Point: true,
				Value: 2, Aux: float64(rank), Iter: -1, Straggler: -1, Trace: uint64(run + 1)})
			t := 0.0 // virtual clock restarts every run
			for i := 0; i < 3; i++ {
				evs = append(evs,
					obs.Event{Rank: rank, Name: obs.EvCompute, T0: t, T1: t + 1e-4,
						Value: 100, Iter: -1, Straggler: -1, Trace: uint64(run + 1)},
					obs.Event{Rank: rank, Name: obs.EvReduce, T0: t + 1e-4, T1: t + 2e-4,
						Value: 2, Iter: -1, Straggler: rank % 2, Wait: 3e-5, Trace: uint64(run + 1)})
				t += 2e-4
			}
		}
		return obs.Track{Process: "session 0 test", PID: 1,
			Thread: "rank", TID: rank, Events: evs}
	}
	return []obs.Track{mk(0), mk(1)}
}

func sampleRequests() []obs.RequestRecord {
	return []obs.RequestRecord{
		{TraceID: 1, Key: "test/pcsi/evp", Session: 0, StartUnixNS: 1_000_000,
			AdmitNS: 1000, QueueNS: 2000, BatchWaitNS: 3000, SolveNS: 600_000,
			TotalNS: 610_000, Iterations: 40, Converged: true, Ranks: 2,
			VCompMean: 4e-4, VHaloMean: 1e-4, VReduceMean: 5e-5, VClockMax: 6e-4},
		{TraceID: 2, Key: "test/pcsi/evp", Session: 0, StartUnixNS: 2_000_000,
			AdmitNS: 1000, QueueNS: 0, BatchWaitNS: 0, SolveNS: 500_000,
			TotalNS: 502_000, Iterations: 40, Converged: false,
			Error: "serve: not converged", Ranks: 2},
	}
}

// TestPerfettoRoundTrip: the export is valid JSON, timestamps are monotone
// non-decreasing per (pid, tid) track despite virtual-clock restarts, and
// request records plus the drop count survive a write→read cycle intact.
func TestPerfettoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, buildTracks(), sampleRequests(), 7); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%.400s", buf.String())
	}

	pt, err := obs.ReadPerfetto(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if pt.Dropped != 7 {
		t.Errorf("dropped: got %d, want 7", pt.Dropped)
	}
	if len(pt.Requests) != 2 {
		t.Fatalf("requests: got %d, want 2", len(pt.Requests))
	}
	if got, want := pt.Requests[0], sampleRequests()[0]; got != want {
		t.Errorf("request record did not round-trip:\ngot  %+v\nwant %+v", got, want)
	}
	if len(pt.Tracks) != 2 || pt.Tracks[1].Process != "session 0 test" ||
		pt.Tracks[1].Thread != "rank" || pt.Tracks[1].PID != 1 || pt.Tracks[1].TID != 1 {
		t.Fatalf("rank tracks did not round-trip: %+v", pt.Tracks)
	}

	// The file itself: timestamps monotone non-decreasing per (pid, tid)
	// track in file order despite the virtual-clock restarts, no negative
	// duration, and every span present.
	var file struct {
		TraceEvents []struct {
			Ph       string
			Ts, Dur  float64
			PID, TID int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	type trackID struct{ pid, tid int }
	last := map[trackID]float64{}
	spans := 0
	for _, e := range file.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		k := trackID{e.PID, e.TID}
		if e.Ts < last[k] {
			t.Fatalf("track %v: ts %g < previous %g", k, e.Ts, last[k])
		}
		last[k] = e.Ts
		if e.Ph == "X" {
			spans++
			if e.Dur < 0 {
				t.Fatalf("negative duration on track %v", k)
			}
		}
	}
	// 2 tracks × 2 runs × 6 span events, plus 2 requests × 5 serve spans.
	if want := 2*2*6 + 2*5; spans != want {
		t.Errorf("span count: got %d, want %d", spans, want)
	}

	// ReadPerfetto is WritePerfetto's inverse: every event comes back on its
	// run segment's own clock with its attribution (straggler, wait, trace
	// ID, and the run_begin shard — shard 0 included).
	for r, want := range buildTracks() {
		got := pt.Tracks[r].Events
		if len(got) != len(want.Events) {
			t.Fatalf("track %d: %d events came back, want %d", r, len(got), len(want.Events))
		}
		for i, w := range want.Events {
			g := got[i]
			if math.Abs(g.T0-w.T0) > 1e-12 || math.Abs(g.Wait-w.Wait) > 1e-12 ||
				(!w.Point && math.Abs(g.T1-w.T1) > 1e-12) {
				t.Fatalf("track %d event %d: times came back as %+v, want %+v", r, i, g, w)
			}
			g.T0, g.T1, g.Wait = w.T0, w.T1, w.Wait
			if g != w {
				t.Fatalf("track %d event %d: came back as %+v, want %+v", r, i, g, w)
			}
		}
	}
}

// TestPerfettoEmptyExport: an export with no tracks and no requests is
// still a valid, parseable trace file.
func TestPerfettoEmptyExport(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty export invalid JSON: %s", buf.String())
	}
	pt, err := obs.ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Tracks) != 0 || len(pt.Requests) != 0 {
		t.Errorf("empty export parsed non-empty: %d tracks, %d requests",
			len(pt.Tracks), len(pt.Requests))
	}
}

// TestAttributeRecord: with virtual stats the solve wall time splits
// exactly into compute/halo/reduce/slack, so the seven phases sum to the
// serve phases plus the solve — and coverage is Sum/Total.
func TestAttributeRecord(t *testing.T) {
	rec := sampleRequests()[0]
	a := obs.AttributeRecord(rec)
	wantSum := float64(rec.AdmitNS+rec.QueueNS+rec.BatchWaitNS+rec.SolveNS) / 1e9
	if math.Abs(a.Sum()-wantSum) > 1e-12 {
		t.Errorf("Sum: got %g, want %g", a.Sum(), wantSum)
	}
	// Virtual mix: comp 4e-4, halo 1e-4, reduce 5e-5 of max clock 6e-4 →
	// slack 5e-5. Scaled onto 600µs of wall solve.
	solve := 600e-6
	if got, want := a.Compute, 4e-4/6e-4*solve; math.Abs(got-want) > 1e-12 {
		t.Errorf("Compute: got %g, want %g", got, want)
	}
	if got, want := a.Slack, 5e-5/6e-4*solve; math.Abs(got-want) > 1e-12 {
		t.Errorf("Slack: got %g, want %g", got, want)
	}
	if cov := a.Coverage(); math.Abs(cov-wantSum/(610e-6)) > 1e-12 {
		t.Errorf("Coverage: got %g", cov)
	}
}

// TestAttributeRecordFreeModel: without virtual pricing (VClockMax 0) the
// whole solve is attributed to compute rather than divided by zero.
func TestAttributeRecordFreeModel(t *testing.T) {
	a := obs.AttributeRecord(obs.RequestRecord{SolveNS: 1e6, TotalNS: 2e6})
	if a.Compute != 1e-3 || a.Halo != 0 || a.Slack != 0 {
		t.Errorf("free-model attribution wrong: %+v", a)
	}
	if obs.AttributeRecord(obs.RequestRecord{}).Coverage() != 0 {
		t.Error("zero record must have zero coverage, not NaN")
	}
}

// TestStragglerLeague aggregates reduce spans into per-rank standings — the
// same standings from tracks built in process and from tracks read back from
// their Perfetto file.
func TestStragglerLeague(t *testing.T) {
	// Two reductions over two ranks: rank 1 arrives last at the first (rank
	// 0 waits 0.5 s for it), rank 0 at the second (rank 1 waits 0.25 s).
	// Compute spans and a track without reduce spans do not count.
	reduce := func(t0 float64, straggler int, wait float64) obs.Event {
		return obs.Event{Name: obs.EvReduce, T0: t0, T1: t0 + 1, Iter: -1, Straggler: straggler, Wait: wait}
	}
	rows := obs.StragglerLeague([]obs.Track{
		{TID: 0, Events: []obs.Event{reduce(0, 1, 0.5), reduce(1, 0, 0),
			{Name: obs.EvCompute, T0: 2, T1: 3, Iter: -1, Straggler: -1}}},
		{TID: 1, Events: []obs.Event{reduce(0.5, 1, 0), reduce(1, 0, 0.25)}},
		{TID: 2, Events: []obs.Event{{Name: obs.EvCompute, Iter: -1, Straggler: -1}}},
	})
	want := []obs.LeagueRow{
		{Rank: 0, Shard: -1, Reduces: 2, Straggled: 1, WaitTotal: 0.5, WaitMean: 0.25},
		{Rank: 1, Shard: -1, Reduces: 2, Straggled: 1, WaitTotal: 0.25, WaitMean: 0.125},
	}
	if len(rows) != 2 || rows[0] != want[0] || rows[1] != want[1] {
		t.Errorf("league: got %+v, want %+v", rows, want)
	}
	var out strings.Builder
	obs.FprintLeague(&out, rows, 1)
	if !strings.Contains(out.String(), "straggler league (top 1 of 2 ranks") ||
		strings.Contains(out.String(), "worker-shard rollup") {
		t.Errorf("FprintLeague of an unsharded league:\n%s", out.String())
	}

	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, buildTracks(), nil, 0); err != nil {
		t.Fatal(err)
	}
	pt, err := obs.ReadPerfetto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows = obs.StragglerLeague(pt.Tracks)
	if len(rows) != 2 {
		t.Fatalf("league rows: got %d, want 2", len(rows))
	}
	// buildTracks marks rank%2 as straggler: rank 0's spans blame rank 0,
	// rank 1's blame rank 1 — each rank straggles all 6 of its reductions.
	for _, r := range rows {
		if r.Reduces != 6 || r.Straggled != 6 {
			t.Errorf("rank %d: %d/%d straggled, want 6/6", r.Rank, r.Straggled, r.Reduces)
		}
		if math.Abs(r.WaitMean-3e-5) > 1e-12 {
			t.Errorf("rank %d wait mean: got %g, want 3e-5", r.Rank, r.WaitMean)
		}
		// buildTracks stamps Aux=rank on run_begin: shard attribution must
		// survive the round-trip, including shard 0.
		if r.Shard != r.Rank {
			t.Errorf("rank %d shard: got %d, want %d", r.Rank, r.Shard, r.Rank)
		}
	}
	out.Reset()
	obs.FprintLeague(&out, rows, 0)
	if !strings.Contains(out.String(), "worker-shard rollup (2 shards)") {
		t.Errorf("FprintLeague of a sharded league has no rollup:\n%s", out.String())
	}
}

// TestTraceIDStamping: the ring stamps its current trace ID onto every Add,
// and EventsFor filters one request's correlated span set.
func TestTraceIDStamping(t *testing.T) {
	tr := obs.NewTracer(16)
	for rank := 0; rank < 2; rank++ {
		rt := tr.Rank(rank)
		rt.SetTraceID(11)
		rt.Add(obs.Event{Name: obs.EvCompute, Iter: -1, Straggler: -1})
		rt.SetTraceID(22)
		rt.Add(obs.Event{Name: obs.EvReduce, Iter: -1, Straggler: -1})
	}
	for _, id := range []uint64{11, 22} {
		evs := tr.EventsFor(id)
		if len(evs) != 2 {
			t.Fatalf("EventsFor(%d): got %d events, want 2", id, len(evs))
		}
		for _, e := range evs {
			if e.Trace != id {
				t.Fatalf("EventsFor(%d) returned trace %d", id, e.Trace)
			}
		}
	}
}

// TestSpanRecordZeroAlloc pins the span-record hot path at zero
// allocations: one Add — including the Rank/Trace stamping — must not
// allocate, or per-iteration tracing would pressure the GC at solve rates.
func TestSpanRecordZeroAlloc(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	rt := tr.Rank(0)
	rt.SetTraceID(42)
	allocs := testing.AllocsPerRun(2000, func() {
		rt.Add(obs.Event{Name: obs.EvReduce, T0: 1, T1: 2,
			Value: 3, Iter: -1, Straggler: 1, Wait: 4e-6})
	})
	if allocs != 0 {
		t.Fatalf("RankTrace.Add allocates %.1f per call, want 0", allocs)
	}
}
