package obs_test

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestFlightRecorderRing: the ring keeps the newest DefaultFlightRing
// records, returns them oldest first, and handles the partially-filled and
// wrapped regimes.
func TestFlightRecorderRing(t *testing.T) {
	var f obs.FlightRecorder
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
	const total = obs.DefaultFlightRing + 5
	for i := 3; i <= total; i++ {
		f.Note(obs.RequestRecord{TraceID: uint64(i)})
	}
	got = f.Recent()
	if len(got) != obs.DefaultFlightRing {
		t.Fatalf("wrapped ring: got %d records, want %d", len(got), obs.DefaultFlightRing)
	}
	for i, rec := range got {
		if want := uint64(total - obs.DefaultFlightRing + 1 + i); rec.TraceID != want {
			t.Fatalf("wrapped ring order: slot %d has trace %d, want %d", i, rec.TraceID, want)
		}
	}
}

// TestFlightNilSafe: a nil recorder is the documented disabled state.
func TestFlightNilSafe(t *testing.T) {
	var f *obs.FlightRecorder
	f.Note(obs.RequestRecord{})
	if f.Recent() != nil {
		t.Error("nil Recent() must be nil")
	}
}

// TestFlightRecorderInMemory exercises the in-memory ring the way the
// serving layer does — many workers noting records while exports read it —
// and relies on -race to catch unsynchronized access.
func TestFlightRecorderInMemory(t *testing.T) {
	var f obs.FlightRecorder
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
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if n := len(f.Recent()); n > obs.DefaultFlightRing {
					t.Errorf("ring read under load: %d records", n)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(f.Recent()); n != obs.DefaultFlightRing {
		t.Errorf("ring after load: got %d records, want %d", n, obs.DefaultFlightRing)
	}
}
