package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Perfetto / Chrome trace-event export. One export renders a set of
// virtual-rank timelines (one Perfetto thread per rank, one process per
// solver session) plus a serve track (one thread per request, phases nested
// as complete events), so the Perfetto UI (ui.perfetto.dev) or
// chrome://tracing shows the exact timeline the paper's phase analysis
// reasons about: compute / halo / reduction spans per rank, with the serve
// layer's queueing and batching above them.
//
// Virtual clocks restart at zero on every run, so the exporter keeps
// a per-track segment offset: each EvRunBegin marker shifts the segment's
// origin to the end of the previous segment, keeping timestamps monotone
// non-decreasing per track (a Perfetto requirement for sane rendering).
//
// The export carries two non-standard top-level keys, both ignored by the
// Perfetto UI: "popRequests" (the serve-layer request records, the input to
// critical-path attribution) and "otherData".dropped_events (ring-buffer
// drop count, so consumers can warn that a trace is truncated).

// RequestRecord is one serve request's span summary: wall-clock phase
// durations through the serving layer plus the solve's virtual-time
// attribution. It is the unit the flight recorder retains and the record
// poptrace turns into a critical-path breakdown.
type RequestRecord struct {
	// TraceID correlates this record with the rank-level events stamped
	// with the same ID.
	TraceID uint64 `json:"trace_id"`
	// Key is the session-pool key the request hashed to ("test/pcsi/evp").
	Key string `json:"key"`
	// Session is the index of the pooled session that ran the solve (−1
	// when the request never reached a worker).
	Session int `json:"session"`
	// StartUnixNS is the admission wall time (UnixNano).
	StartUnixNS int64 `json:"start_unix_ns"`
	// RouterNS is wall time spent in a fleet router before the request
	// reached a worker (hashing, cache lookup, singleflight coordination,
	// dispatch). 0 for requests that never crossed a router.
	RouterNS int64 `json:"router_ns,omitempty"`
	// AdmitNS is wall time spent in admission: validation, normalization,
	// pool lookup and warm-up, up to the queue send.
	AdmitNS int64 `json:"admit_ns"`
	// QueueNS is wall time from queue send to a worker dequeuing the
	// request.
	QueueNS int64 `json:"queue_ns"`
	// BatchWaitNS is wall time from dequeue to solve start — the batching
	// window spent waiting for batch-mates plus head-of-batch solves.
	BatchWaitNS int64 `json:"batch_wait_ns"`
	// SolveNS is the wall time of the solve itself (all attempts).
	SolveNS int64 `json:"solve_ns"`
	// TotalNS is the measured request latency: admission entry to response
	// receipt at the caller. The phase durations above sum to TotalNS minus
	// the worker→caller hand-off.
	TotalNS int64 `json:"total_ns"`
	// Iterations is the solver iteration count (0 on error paths).
	Iterations int `json:"iterations"`
	// Converged reports whether the solve met its tolerance.
	Converged bool `json:"converged"`
	// Error is the terminal error string ("" on success).
	Error string `json:"error,omitempty"`
	// Ranks is the virtual rank count of the session's world.
	Ranks int `json:"ranks"`
	// Shard is the fleet worker that ran the solve (−1 when the request
	// never dispatched to a worker: single-process serving, cache hits,
	// router-level rejections).
	Shard int `json:"shard,omitempty"`
	// Cache reports how a fleet router satisfied the request: "hit",
	// "miss", "dedup" — "" when no router was involved.
	Cache string `json:"cache,omitempty"`
	// VCompMean, VHaloMean, VReduceMean are the solve's per-rank mean
	// virtual seconds in computation, boundary update, and global
	// reduction — the paper's three POP timer phases.
	VCompMean   float64 `json:"v_comp_mean"`
	VHaloMean   float64 `json:"v_halo_mean"`   // see VCompMean
	VReduceMean float64 `json:"v_reduce_mean"` // see VCompMean
	// VClockMax is the slowest rank's virtual clock — the solve's virtual
	// completion time; VClockMax minus the mean rank clock is the
	// straggler slack.
	VClockMax float64 `json:"v_clock_max"`
}

// Track is one virtual-rank timeline handed to WritePerfetto: the retained
// events of one rank's ring, labelled with the Perfetto process (solver
// session) and thread (rank) they render under.
type Track struct {
	// Process labels the Perfetto process row (e.g. "session 0 test/pcsi/evp").
	Process string
	// PID is the Perfetto process ID grouping this track (serve uses 0;
	// sessions count from 1).
	PID int
	// Thread labels the Perfetto thread row (e.g. "rank 3").
	Thread string
	// TID is the Perfetto thread ID within the process (the rank ID).
	TID int
	// Events are the track's events in record order (RankTrace.Events()).
	Events []Event
}

// ServePID is the Perfetto process ID of the serve track; rank tracks use
// session index + 1.
const ServePID = 0

// chromeEvent is one entry of the "traceEvents" array.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"` // microseconds
	Dur  *float64 `json:"dur,omitempty"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	S    string   `json:"s,omitempty"` // instant-event scope
	Args any      `json:"args,omitempty"`
}

// rankArgs is the args payload of one rank event — the Event fields that
// have no Chrome trace-event slot of their own, written by rankArgsOf and
// applied back by ReadPerfetto. A field is present only when the event set
// it; keys are in alphabetical order, as encoding/json writes a map.
type rankArgs struct {
	Aux float64 `json:"aux,omitempty"`
	// Iter is absent for Event.Iter −1.
	Iter *int `json:"iter,omitempty"`
	// Shard is a run_begin marker's Aux (the worker shard), written
	// unconditionally — shard 0 included — so consumers can tell "shard 0"
	// from "unattributed".
	Shard *float64 `json:"shard,omitempty"`
	// Straggler and WaitUS (Event.Wait in µs) ride together on reduce spans.
	Straggler *int     `json:"straggler,omitempty"`
	Trace     uint64   `json:"trace,omitempty"`
	Value     float64  `json:"value,omitempty"`
	WaitUS    *float64 `json:"wait_us,omitempty"`
}

// rankArgsOf builds e's args payload, nil when e set none of the fields.
func rankArgsOf(e *Event) any {
	a := rankArgs{Trace: e.Trace, Value: e.Value}
	if e.Iter >= 0 {
		a.Iter = &e.Iter
	}
	if e.Name == EvRunBegin {
		a.Shard = &e.Aux
	} else {
		a.Aux = e.Aux
	}
	if e.Straggler >= 0 {
		us := e.Wait * 1e6
		a.Straggler, a.WaitUS = &e.Straggler, &us
	}
	if a == (rankArgs{}) {
		return nil
	}
	return a
}

// apply sets the fields of e that a carries — rankArgsOf's inverse.
func (a *rankArgs) apply(e *Event) {
	e.Trace, e.Value, e.Aux = a.Trace, a.Value, a.Aux
	if a.Iter != nil {
		e.Iter = *a.Iter
	}
	if a.Shard != nil {
		e.Aux = *a.Shard
	}
	if a.Straggler != nil {
		e.Straggler = *a.Straggler
	}
	if a.WaitUS != nil {
		e.Wait = *a.WaitUS / 1e6
	}
}

// WritePerfetto renders tracks and request records as Chrome trace-event
// JSON loadable in ui.perfetto.dev. dropped is the trace ring's drop count,
// recorded under otherData so consumers can flag truncated traces.
func WritePerfetto(w io.Writer, tracks []Track, reqs []RequestRecord, dropped int64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(raw)
		return err
	}
	meta := func(pid, tid int, kind, name string) error {
		ev := chromeEvent{Name: kind, Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name}}
		return emit(ev)
	}

	// Serve track: one thread per request, phases as nested complete events.
	if len(reqs) > 0 {
		if err := meta(ServePID, 0, "process_name", "serve"); err != nil {
			return err
		}
		base := reqs[0].StartUnixNS
		for _, r := range reqs {
			if r.StartUnixNS < base {
				base = r.StartUnixNS
			}
		}
		for _, r := range reqs {
			tid := int(r.TraceID)
			if err := meta(ServePID, tid, "thread_name", fmt.Sprintf("req %d", r.TraceID)); err != nil {
				return err
			}
			ts := float64(r.StartUnixNS-base) / 1e3 // ns → µs
			args := map[string]any{"trace": r.TraceID, "key": r.Key,
				"session": r.Session, "iterations": r.Iterations,
				"converged": r.Converged}
			if r.Error != "" {
				args["error"] = r.Error
			}
			total := float64(r.TotalNS) / 1e3
			if err := emit(chromeEvent{Name: "request", Ph: "X", Ts: ts, Dur: &total,
				PID: ServePID, TID: tid, Args: args}); err != nil {
				return err
			}
			cursor := ts
			for _, ph := range []struct {
				name string
				ns   int64
			}{
				{"admit", r.AdmitNS},
				{"queue", r.QueueNS},
				{"batch_wait", r.BatchWaitNS},
				{"solve", r.SolveNS},
			} {
				dur := float64(ph.ns) / 1e3
				if dur < 0 {
					dur = 0
				}
				if err := emit(chromeEvent{Name: ph.name, Ph: "X", Ts: cursor, Dur: &dur,
					PID: ServePID, TID: tid,
					Args: map[string]any{"trace": r.TraceID}}); err != nil {
					return err
				}
				cursor += dur
			}
		}
	}

	// Rank tracks: virtual-clock events with per-run segment offsets.
	for _, tr := range tracks {
		if err := meta(tr.PID, tr.TID, "process_name", tr.Process); err != nil {
			return err
		}
		if err := meta(tr.PID, tr.TID, "thread_name", tr.Thread); err != nil {
			return err
		}
		offset, last := 0.0, 0.0 // µs on this track
		for _, e := range tr.Events {
			if e.Name == EvRunBegin {
				offset = last // new run segment starts where the previous ended
			}
			ts := offset + e.T0*1e6
			if ts < last {
				ts = last // clamp: monotone per track even if a ring wrapped mid-run
			}
			args := rankArgsOf(&e)
			if e.IsPoint() {
				if err := emit(chromeEvent{Name: e.Name, Ph: "i", Ts: ts,
					PID: tr.PID, TID: tr.TID, S: "t", Args: args}); err != nil {
					return err
				}
				if ts > last {
					last = ts
				}
				continue
			}
			end := offset + e.T1*1e6
			if end < ts {
				end = ts
			}
			dur := end - ts
			if err := emit(chromeEvent{Name: e.Name, Ph: "X", Ts: ts, Dur: &dur,
				PID: tr.PID, TID: tr.TID, Args: args}); err != nil {
				return err
			}
			if end > last {
				last = end
			}
		}
	}

	if _, err := fmt.Fprintf(bw,
		`],"displayTimeUnit":"ms","otherData":{"dropped_events":%d},"popRequests":`,
		dropped); err != nil {
		return err
	}
	if reqs == nil {
		reqs = []RequestRecord{}
	}
	raw, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	if _, err := bw.Write(raw); err != nil {
		return err
	}
	if err := bw.WriteByte('}'); err != nil {
		return err
	}
	return bw.Flush()
}

// PerfettoTrace is a parsed Perfetto export.
type PerfettoTrace struct {
	// Tracks are the rank timelines, rebuilt as the inverse of what
	// WritePerfetto rendered: one Track per (pid, tid) in file order, each
	// event back on its run segment's virtual clock (seconds since the
	// track's last run_begin marker). The serve process is not among them —
	// it only renders Requests.
	Tracks []Track
	// Requests are the serve-layer request records.
	Requests []RequestRecord
	// Dropped is the ring-buffer drop count at export time; a nonzero value
	// means the trace is truncated (oldest events lost).
	Dropped int64
}

// ReadPerfetto parses a Perfetto/Chrome trace-event JSON export produced by
// WritePerfetto (tolerating files from other producers: unknown phases and
// foreign args are skipped, missing pop extensions default to empty).
func ReadPerfetto(r io.Reader) (*PerfettoTrace, error) {
	var file struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			PID  int             `json:"pid"`
			TID  int             `json:"tid"`
			Args json.RawMessage `json:"args"` // metadata args carry a string, rank args numbers
		} `json:"traceEvents"`
		OtherData struct {
			Dropped int64 `json:"dropped_events"`
		} `json:"otherData"`
		PopRequests []RequestRecord `json:"popRequests"`
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("obs: parse perfetto trace: %w", err)
	}
	pt := &PerfettoTrace{Requests: file.PopRequests, Dropped: file.OtherData.Dropped}
	type trackID struct{ pid, tid int }
	index := make(map[trackID]int)      // into pt.Tracks
	origin := make(map[trackID]float64) // ts (µs) of the track's last run_begin
	for _, raw := range file.TraceEvents {
		if raw.PID == ServePID {
			continue
		}
		id := trackID{raw.PID, raw.TID}
		i, ok := index[id]
		if !ok {
			i = len(pt.Tracks)
			index[id] = i
			pt.Tracks = append(pt.Tracks, Track{PID: raw.PID, TID: raw.TID})
		}
		tr := &pt.Tracks[i]
		switch raw.Ph {
		case "M":
			var meta struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(raw.Args, &meta) != nil {
				continue
			}
			switch raw.Name {
			case "process_name":
				tr.Process = meta.Name
			case "thread_name":
				tr.Thread = meta.Name
			}
		case "X", "i":
			e := Event{Rank: raw.TID, Name: raw.Name, Point: raw.Ph == "i", Iter: -1, Straggler: -1}
			var a rankArgs
			if len(raw.Args) > 0 && json.Unmarshal(raw.Args, &a) == nil {
				a.apply(&e)
			}
			if e.Name == EvRunBegin {
				origin[id] = raw.Ts
			}
			e.T0 = (raw.Ts - origin[id]) / 1e6
			e.T1 = e.T0 + raw.Dur/1e6
			tr.Events = append(tr.Events, e)
		}
	}
	return pt, nil
}

// Attribution is one request's critical-path breakdown: where the wall time
// between admission and response went. The serve phases (Admit, Queue,
// BatchWait) are measured wall time; the solve phases (Compute, Halo,
// Reduce, Slack) split the measured solve wall time in proportion to the
// solve's virtual-time phase mix, with Slack the share spent waiting for
// the slowest rank (max rank clock − mean rank clock) — the paper's
// straggler cost. Phases sum to Total minus the worker→caller hand-off.
type Attribution struct {
	// TraceID and Key identify the request.
	TraceID uint64
	Key     string // see TraceID
	// Router is fleet-router time (hash, cache, dedup, dispatch) in
	// seconds; 0 when the request never crossed a router.
	Router float64
	// Admit, Queue, BatchWait, Compute, Halo, Reduce, Slack are the phase
	// durations in seconds.
	Admit, Queue, BatchWait, Compute, Halo, Reduce, Slack float64
	// Total is the measured request latency in seconds.
	Total float64
}

// Sum returns the attributed time: the eight phase durations added up.
func (a Attribution) Sum() float64 {
	return a.Router + a.Admit + a.Queue + a.BatchWait + a.Compute + a.Halo + a.Reduce + a.Slack
}

// Coverage returns Sum/Total — how much of the measured latency the phases
// explain (1 when attribution is airtight; the shortfall is the
// worker→caller response hand-off).
func (a Attribution) Coverage() float64 {
	if a.Total <= 0 {
		return 0
	}
	return a.Sum() / a.Total
}

// AttributeRecord computes one request's critical-path attribution from its
// span summary.
func AttributeRecord(rec RequestRecord) Attribution {
	a := Attribution{
		TraceID:   rec.TraceID,
		Key:       rec.Key,
		Router:    float64(rec.RouterNS) / 1e9,
		Admit:     float64(rec.AdmitNS) / 1e9,
		Queue:     float64(rec.QueueNS) / 1e9,
		BatchWait: float64(rec.BatchWaitNS) / 1e9,
		Total:     float64(rec.TotalNS) / 1e9,
	}
	solve := float64(rec.SolveNS) / 1e9
	if rec.VClockMax > 0 {
		// Split the solve wall time by the virtual phase mix; the virtual
		// phases plus slack sum to VClockMax by construction, so the wall
		// split is exact.
		scale := solve / rec.VClockMax
		a.Compute = rec.VCompMean * scale
		a.Halo = rec.VHaloMean * scale
		a.Reduce = rec.VReduceMean * scale
		slackV := rec.VClockMax - (rec.VCompMean + rec.VHaloMean + rec.VReduceMean)
		if slackV < 0 {
			slackV = 0
		}
		a.Slack = slackV * scale
	} else {
		// Free cost model (no virtual pricing): the whole solve is compute.
		a.Compute = solve
	}
	return a
}
