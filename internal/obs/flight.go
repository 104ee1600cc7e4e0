package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// FlightRecorder is the serving layer's black box: an always-on bounded ring
// of recent request span summaries that costs one mutexed struct copy per
// request and is dumped to disk automatically when something goes wrong — a
// fault beyond the serve layer's retry, or a latency-SLO breach. The dump
// carries the offending request's record and rank-level spans, the
// recent-request ring (the context leading up to the incident), and a
// metrics snapshot, so a post-hoc diagnosis never depends on having had
// verbose tracing enabled before the incident.
//
// A nil *FlightRecorder is a valid disabled recorder: every method is a
// nil-safe no-op.
type FlightRecorder struct {
	mu     sync.Mutex
	ring   []RequestRecord
	next   int
	total  int64
	dir    string
	maxDmp int
	dumps  int64 // triggers fired; numbers the dump files
}

// DefaultFlightRing is the ring capacity when NewFlightRecorder is given ≤ 0.
const DefaultFlightRing = 256

// DefaultFlightDumps caps how many incident files one recorder writes
// (incident storms must not fill the disk); later triggers write nothing.
const DefaultFlightDumps = 16

// NewFlightRecorder builds a recorder retaining the last capacity request
// records. dir is where incident dumps are written; an empty dir keeps the
// recorder purely in-memory (Recent() works, no files).
func NewFlightRecorder(capacity int, dir string) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRing
	}
	return &FlightRecorder{
		ring:   make([]RequestRecord, capacity),
		dir:    dir,
		maxDmp: DefaultFlightDumps,
	}
}

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
	return f.recentLocked()
}

// recentLocked copies the ring oldest first; f.mu must be held.
func (f *FlightRecorder) recentLocked() []RequestRecord {
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

// FlightDump is the JSON document one incident dump file holds.
type FlightDump struct {
	// Reason names the trigger: "fault_recovery" or "slo_breach".
	Reason string `json:"reason"`
	// Offending is the request that fired the trigger.
	Offending RequestRecord `json:"offending"`
	// Events are the offending request's rank-level spans (every retained
	// event stamped with its trace ID), when a tracer was attached.
	Events []Event `json:"events,omitempty"`
	// Recent is the ring at trigger time, oldest first — the requests
	// leading up to the incident.
	Recent []RequestRecord `json:"recent"`
	// Metrics is a Prometheus text-exposition snapshot at trigger time.
	Metrics string `json:"metrics,omitempty"`
}

// Dump records an incident: it snapshots the ring, bundles the offending
// request's record and spans plus a metrics snapshot from reg (both
// optional), and writes the bundle to the recorder's dump directory as
// flight-NNN-<reason>.json. It returns the file path, or "" when no file
// was written (no dump directory, or the dump cap was reached). A nil
// recorder is a no-op.
func (f *FlightRecorder) Dump(reason string, offending RequestRecord, events []Event, reg *Registry) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	f.dumps++
	seq := f.dumps
	dir := f.dir
	write := dir != "" && seq <= int64(f.maxDmp)
	// Snapshot the ring under the lock; render and write outside it.
	recent := f.recentLocked()
	f.mu.Unlock()

	if !write {
		return "", nil
	}
	dump := FlightDump{Reason: reason, Offending: offending, Events: events, Recent: recent}
	if reg != nil {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err == nil {
			dump.Metrics = sb.String()
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%03d-%s.json", seq, sanitizeReason(reason)))
	raw, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	return path, nil
}

// sanitizeReason maps a trigger reason to a filename-safe slug.
func sanitizeReason(reason string) string {
	var sb strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "incident"
	}
	return sb.String()
}
