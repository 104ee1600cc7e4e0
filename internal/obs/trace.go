package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Event names emitted by the runtime and the solvers. Span events bracket a
// phase on one rank's virtual clock; point events mark a solver milestone.
const (
	// EvCompute brackets one charged computation phase (an AddFlops call);
	// Value is the flop count.
	EvCompute = "compute"
	// EvHalo brackets one halo-exchange phase (E/W or N/S); Value is the
	// bytes received cross-rank.
	EvHalo = "halo"
	// EvReduce brackets one global reduction; Straggler is the rank whose
	// entry clock was the reduction's critical path, Wait is how long this
	// rank waited for it (max entry clock − own entry clock), Value is the
	// reduced payload length.
	EvReduce = "reduce"
	// EvResidual is a convergence check: Iter is the solver iteration,
	// Value the relative residual ‖r‖/‖b‖.
	EvResidual = "residual"
	// EvEigBound is one Lanczos step's eigenvalue-bound estimate: Iter is
	// the step, Value = ν (lower), Aux = μ (upper).
	EvEigBound = "eig_bound"
	// EvIntervalWiden is P-CSI's slow-convergence guard widening the
	// Chebyshev interval downward; Value/Aux are the new ν/μ.
	EvIntervalWiden = "interval_widen"
	// EvIntervalRaise is P-CSI's divergence guard raising μ; Value/Aux are
	// the new ν/μ.
	EvIntervalRaise = "interval_raise"
	// EvFault is a point event marking one injected fault on the emitting
	// rank: Aux encodes the fault class (faults.Class ordinal), Value the
	// straggler delay in seconds (stragglers) or the collective/phase
	// sequence number (other classes).
	EvFault = "fault_inject"
	// EvRecover is a point event marking one recovery action: Iter is the
	// solver iteration it happened at, Value encodes the recovery kind
	// ordinal (see internal/core: reduce-retry=0, restore=1, reconverge=2).
	EvRecover = "fault_recover"
	// EvRunBegin marks the start of one run (comm.World.RunShards) on a rank. Every run
	// restarts the virtual clock at zero, so timestamps are monotone
	// non-decreasing per rank *within* a run segment; consumers must treat
	// this marker as a segment boundary. Value is the run's rank count and
	// Aux the worker shard the rank executed on (comm.Rank.Shard) — the
	// hardware-parallelism attribution key for everything in the segment.
	EvRunBegin = "run_begin"
)

// Event is one trace record. Spans carry [T0, T1] on the emitting rank's
// virtual clock; point events set Point and use T0 as their timestamp
// (span durations can legitimately be zero under a free cost model, so
// point-ness is explicit rather than inferred). Iter is −1 and Straggler
// −1 when not applicable. Trace is the request-scoped trace ID the ring
// stamped at record time (0 when the run was not serving a traced request),
// which is what correlates one serve request's rank-level spans across
// every layer — see SetTraceID.
type Event struct {
	// Rank is the emitting virtual rank.
	Rank int
	// Name is the event kind (one of the Ev* constants).
	Name string
	// T0 and T1 are the span bounds on the rank's virtual clock (seconds);
	// point events use T0 as their timestamp.
	T0, T1 float64
	// Point marks an instantaneous event.
	Point bool
	// Iter is the solver iteration the event belongs to, −1 when none.
	Iter int
	// Value is the event's primary magnitude (bytes moved, residual, …) as
	// documented per Ev* constant.
	Value float64
	// Aux is the event's secondary magnitude, per Ev* constant.
	Aux float64
	// Straggler is the rank whose late entry set a reduction's critical
	// path, −1 when not applicable.
	Straggler int
	// Wait is virtual time (seconds) spent waiting on the straggler.
	Wait float64
	// Trace is the request-scoped trace ID stamped at record time (0 =
	// not serving a traced request).
	Trace uint64
}

// IsPoint reports whether the event is an instantaneous marker.
func (e *Event) IsPoint() bool { return e.Point }

// RankTrace is one rank's ring buffer. It is written by exactly one
// goroutine (the worker running the rank's shard) — the runtime hands each
// rank its own buffer — so writes need no synchronization; reading happens
// after the run returns.
type RankTrace struct {
	rank  int
	trace uint64 // current request trace ID, stamped onto every Add
	buf   []Event
	next  int   // next write position
	total int64 // events ever recorded
}

// SetTraceID sets the request-scoped trace ID stamped onto every subsequent
// Add (0 clears it). The runtime calls it at each run's entry, before
// the run's first event, so every event of a run carries the ID of the
// request that run is serving.
func (rt *RankTrace) SetTraceID(id uint64) { rt.trace = id }

// Add records one event, overwriting the oldest when the ring is full. The
// event's Rank and Trace fields are stamped by the buffer — callers never
// thread the trace ID through instrumentation sites.
//
//pop:hotpath
func (rt *RankTrace) Add(e Event) {
	e.Rank = rt.rank
	e.Trace = rt.trace
	rt.buf[rt.next] = e
	rt.next++
	if rt.next == len(rt.buf) {
		rt.next = 0
	}
	rt.total++
}

// Len returns the number of retained events.
func (rt *RankTrace) Len() int {
	if rt.total < int64(len(rt.buf)) {
		return int(rt.total)
	}
	return len(rt.buf)
}

// Dropped returns how many events the ring overwrote.
func (rt *RankTrace) Dropped() int64 {
	if d := rt.total - int64(len(rt.buf)); d > 0 {
		return d
	}
	return 0
}

// Events returns the retained events in record order (oldest first).
func (rt *RankTrace) Events() []Event {
	n := rt.Len()
	out := make([]Event, 0, n)
	if rt.total > int64(len(rt.buf)) {
		out = append(out, rt.buf[rt.next:]...)
		out = append(out, rt.buf[:rt.next]...)
		return out
	}
	return append(out, rt.buf[:rt.next]...)
}

// Tracer owns the per-rank ring buffers. A nil *Tracer is a valid disabled
// tracer: the runtime checks Enabled() once per run and leaves the
// per-rank hook pointers nil, so a disabled tracer costs one pointer
// comparison per instrumentation site and allocates nothing.
type Tracer struct {
	mu              sync.Mutex
	cap             int
	ranks           map[int]*RankTrace
	droppedExported int64 // drop total already published via ExportDropped
}

// DefaultCapacity is the per-rank ring size when NewTracer is given ≤ 0.
const DefaultCapacity = 1 << 16

// NewTracer builds a tracer whose per-rank rings retain capPerRank events.
func NewTracer(capPerRank int) *Tracer {
	if capPerRank <= 0 {
		capPerRank = DefaultCapacity
	}
	return &Tracer{cap: capPerRank, ranks: make(map[int]*RankTrace)}
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// Rank returns (creating on first use) rank id's buffer.
func (t *Tracer) Rank(id int) *RankTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	rt, ok := t.ranks[id]
	if !ok {
		rt = &RankTrace{rank: id, buf: make([]Event, t.cap)}
		t.ranks[id] = rt
	}
	return rt
}

// Tracks returns one Track per rank ring, ascending by rank, each holding
// the ring's retained events in record order — the form WritePerfetto
// renders and StragglerLeague aggregates. process and pid label the Perfetto
// process the tracks render under (one process per solver session).
func (t *Tracer) Tracks(process string, pid int) []Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.ranks))
	for id := range t.ranks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	tracks := make([]Track, len(ids))
	for i, id := range ids {
		tracks[i] = Track{Process: process, PID: pid,
			Thread: fmt.Sprintf("rank %d", id), TID: id, Events: t.ranks[id].Events()}
	}
	return tracks
}

// Events returns every retained event, grouped by rank (ascending) and in
// record order within each rank.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, tr := range t.Tracks("", 0) {
		out = append(out, tr.Events...)
	}
	return out
}

// Dropped returns the total events lost to ring wraparound.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedLocked()
}

func (t *Tracer) droppedLocked() int64 {
	var d int64
	for _, rt := range t.ranks {
		d += rt.Dropped()
	}
	return d
}

// ExportDropped publishes the tracer's ring-drop total into reg's
// obs_trace_dropped_total counter: the delta since the tracer's previous
// export is added, so repeated exports keep the counter monotone and equal
// to Dropped(). A nil tracer or registry is a no-op. Callers poll it at
// natural scrape points (stats snapshots, trace exports) rather than on the
// record hot path.
func (t *Tracer) ExportDropped(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.droppedLocked()
	if delta := d - t.droppedExported; delta > 0 {
		reg.Counter("obs_trace_dropped_total",
			"trace events lost to ring-buffer wraparound (truncated traces)").Add(delta)
		t.droppedExported = d
	}
}

// EventsFor returns every retained event stamped with the given trace ID,
// grouped by rank and in record order — one request's correlated span set
// across all ranks.
func (t *Tracer) EventsFor(id uint64) []Event {
	all := t.Events()
	out := make([]Event, 0, 64)
	for _, e := range all {
		if e.Trace == id {
			out = append(out, e)
		}
	}
	return out
}
