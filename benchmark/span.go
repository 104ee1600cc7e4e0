package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Times are nanoseconds since the recorder was made. Spans of one
// operation share Op (0 for spans outside any operation).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxOpSpans caps the spans a recorder keeps for timed operations: the
// cache-hit workload completes hundreds of thousands of operations per
// traced run and a span file of that size would cost more to write than the
// run it describes. Operations past the cap are counted, not kept; set-up
// and probe spans are always kept.
const maxOpSpans = 100_000

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs pay nothing for it.
type recorder struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// forOp returns the recorder one more operation of n spans should record
// into: r itself while there is room, nil (record nothing) after.
func (r *recorder) forOp(n int) *recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans)+n > maxOpSpans {
		r.dropped += n
		return nil
	}
	return r
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, op int, f func()) {
	id := r.begin(name, parent, op)
	f()
	r.end(id)
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its children cover. Overlapping children (two clients inside one parent)
// are merged first, so an instant covered twice is subtracted once.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// printSummary writes one row per span name, in order of first appearance:
// how many spans, their total time, and their self time — where a traced
// run's wall went, read off the spans alone.
func printSummary(out io.Writer, spans []span) {
	type row struct {
		n           int
		total, self int64
	}
	self := selfTimes(spans)
	rows := make(map[string]*row)
	var order []string
	for _, s := range spans {
		r, ok := rows[s.Name]
		if !ok {
			r = &row{}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[s.ID]
	}
	fmt.Fprintf(out, "%-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, name := range order {
		r := rows[name]
		fmt.Fprintf(out, "%-28s %8d %12.3f %12.3f\n", name, r.n, float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// durationsByName collects span durations in nanoseconds per span name.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// write stores the spans as JSON at path, creating its directory.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: r.dropped, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
