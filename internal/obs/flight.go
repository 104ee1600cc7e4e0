package obs

import "sync"

// FlightRecorder is the serving layer's black box: an always-on ring of the
// last DefaultFlightRing request span summaries that costs one mutexed
// struct copy per request. /debug/flight serves it, and the Perfetto export
// carries it as the trace's request records, so a post-hoc diagnosis of
// recent traffic never depends on having had verbose tracing enabled.
//
// The zero value is an empty recorder ready for use. A nil *FlightRecorder
// is a valid disabled recorder: every method is a nil-safe no-op.
type FlightRecorder struct {
	mu    sync.Mutex
	ring  [DefaultFlightRing]RequestRecord
	next  int
	total int64
}

// DefaultFlightRing is the recorder's ring capacity: the number of most
// recent request records it retains.
const DefaultFlightRing = 256

// Note records one finished request's span summary into the ring,
// overwriting the oldest when full. Safe for concurrent use.
func (f *FlightRecorder) Note(rec RequestRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = rec
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
	f.total++
	f.mu.Unlock()
}

// Recent returns the retained request records, oldest first.
func (f *FlightRecorder) Recent() []RequestRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.total
	if n > int64(len(f.ring)) {
		n = int64(len(f.ring))
	}
	out := make([]RequestRecord, 0, n)
	if f.total > int64(len(f.ring)) {
		out = append(out, f.ring[f.next:]...)
	}
	return append(out, f.ring[:f.next]...)
}
