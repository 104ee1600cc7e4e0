package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestFlightRecorderRing: the ring keeps the newest records, returns them
// oldest first, and handles the partially-filled and wrapped regimes.
func TestFlightRecorderRing(t *testing.T) {
	f := obs.NewFlightRecorder(4, "")
	if got := f.Recent(); len(got) != 0 {
		t.Fatalf("fresh recorder: got %d records", len(got))
	}
	for i := 1; i <= 2; i++ {
		f.Note(obs.RequestRecord{TraceID: uint64(i)})
	}
	got := f.Recent()
	if len(got) != 2 || got[0].TraceID != 1 || got[1].TraceID != 2 {
		t.Fatalf("partial ring wrong: %+v", got)
	}
	for i := 3; i <= 7; i++ {
		f.Note(obs.RequestRecord{TraceID: uint64(i)})
	}
	got = f.Recent()
	if len(got) != 4 {
		t.Fatalf("wrapped ring: got %d records, want 4", len(got))
	}
	for i, rec := range got {
		if want := uint64(4 + i); rec.TraceID != want {
			t.Fatalf("wrapped ring order: slot %d has trace %d, want %d (all: %+v)",
				i, rec.TraceID, want, got)
		}
	}
}

// TestFlightDumpFileContents: a dump writes flight-NNN-<reason>.json holding
// the trigger reason, the offending request, its spans, the ring, and a
// metrics snapshot.
func TestFlightDumpFileContents(t *testing.T) {
	dir := t.TempDir()
	f := obs.NewFlightRecorder(8, dir)
	f.Note(obs.RequestRecord{TraceID: 1})
	bad := obs.RequestRecord{TraceID: 2, Error: "boom", TotalNS: 5e6}
	f.Note(bad)

	reg := obs.NewRegistry()
	reg.Counter("faults_total", "injected faults").Add(3)
	events := []obs.Event{{Rank: 0, Name: obs.EvReduce, Trace: 2, Iter: -1, Straggler: -1}}

	path, err := f.Dump("fault recovery!", bad, events, reg)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "flight-001-fault_recovery_.json"); path != want {
		t.Errorf("dump path: got %q, want %q", path, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "fault recovery!" {
		t.Errorf("reason: %q", dump.Reason)
	}
	if dump.Offending.TraceID != 2 || dump.Offending.Error != "boom" {
		t.Errorf("offending record wrong: %+v", dump.Offending)
	}
	if len(dump.Events) != 1 || dump.Events[0].Trace != 2 {
		t.Errorf("events wrong: %+v", dump.Events)
	}
	if len(dump.Recent) != 2 || dump.Recent[0].TraceID != 1 {
		t.Errorf("recent ring wrong: %+v", dump.Recent)
	}
	if !strings.Contains(dump.Metrics, "faults_total 3") {
		t.Errorf("metrics snapshot missing counter:\n%s", dump.Metrics)
	}
	if n := countDumps(t, dir); n != 1 {
		t.Errorf("dump files: got %d, want 1", n)
	}
}

// countDumps counts the incident files a recorder wrote into dir.
func countDumps(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestFlightDumpCap: after DefaultFlightDumps files, triggers write nothing
// — an incident storm must not fill the disk.
func TestFlightDumpCap(t *testing.T) {
	dir := t.TempDir()
	f := obs.NewFlightRecorder(2, dir)
	for i := 0; i < obs.DefaultFlightDumps+5; i++ {
		path, err := f.Dump("slo_breach", obs.RequestRecord{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i < obs.DefaultFlightDumps && path == "" {
			t.Fatalf("dump %d under the cap wrote no file", i)
		}
		if i >= obs.DefaultFlightDumps && path != "" {
			t.Fatalf("dump %d over the cap wrote %s", i, path)
		}
	}
	if n := countDumps(t, dir); n != obs.DefaultFlightDumps {
		t.Errorf("files written: got %d, want exactly %d", n, obs.DefaultFlightDumps)
	}
}

// TestFlightDumpUnderLoad exercises the recorder the way the serving layer
// does — many workers noting records while incidents dump concurrently —
// and relies on -race to catch unsynchronized access.
func TestFlightDumpUnderLoad(t *testing.T) {
	dir := t.TempDir()
	f := obs.NewFlightRecorder(32, dir)
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Note(obs.RequestRecord{TraceID: uint64(w*1000 + i)})
			}
		}(w)
	}
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := f.Dump("slo_breach", obs.RequestRecord{TraceID: 9}, nil, reg); err != nil {
					t.Errorf("dump under load: %v", err)
				}
				_ = f.Recent()
			}
		}()
	}
	wg.Wait()
	if n := countDumps(t, dir); n != obs.DefaultFlightDumps {
		t.Errorf("dump files: got %d, want %d (20 triggers, capped)", n, obs.DefaultFlightDumps)
	}
	recent := f.Recent()
	if len(recent) != 32 {
		t.Errorf("ring after load: got %d records, want 32", len(recent))
	}
}

// TestFlightNilSafe: a nil recorder is the documented disabled state.
func TestFlightNilSafe(t *testing.T) {
	var f *obs.FlightRecorder
	f.Note(obs.RequestRecord{})
	if f.Recent() != nil {
		t.Error("nil Recent() must be nil")
	}
	if path, err := f.Dump("x", obs.RequestRecord{}, nil, nil); path != "" || err != nil {
		t.Errorf("nil Dump: %q, %v", path, err)
	}
}

// TestFlightRecorderInMemory: an empty dump dir keeps the recorder purely
// in-memory — no files attempted.
func TestFlightRecorderInMemory(t *testing.T) {
	f := obs.NewFlightRecorder(0, "")
	path, err := f.Dump("slo_breach", obs.RequestRecord{TraceID: 7}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if path != "" {
		t.Errorf("in-memory recorder wrote %s", path)
	}
}
