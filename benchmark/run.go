package main

import (
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times an untraced run sets the system up; setup_s
// is their median, because a single set-up of a few hundred milliseconds
// is at the mercy of one scheduling hiccup.
const setupReps = 3

// setup builds the workload's system under test up to its first timed
// operation and reports how long that took.
func setup(w workload, in *inputs, seed int64, rec *recorder, parent int) (target, time.Duration, error) {
	start := time.Now()
	id := rec.begin("setup", parent, 0)
	var t target
	var err error
	if w.fleet {
		t, err = setupFleet(w, in, seed, rec, id)
	} else {
		t, err = setupPop(w, in, rec, id)
	}
	rec.end(id)
	return t, time.Since(start), err
}

// finishWarmup runs the warm-up operations set-up did not already run. The
// fleet's set-up requests are its warm-up.
func finishWarmup(t target) error {
	p, ok := t.(*popTarget)
	if !ok {
		return nil
	}
	for i := 1; i < warmups; i++ {
		if err := p.warm(i); err != nil {
			return err
		}
	}
	return nil
}

// liveHeapMB is the heap still reachable after a collection: what the
// system under test retains (sessions, arenas, cached answers) plus the
// benchmark's own inputs, which are the same size on every run. Unlike the
// resident-set peak it does not depend on when the collector happened to
// run, so it can carry a bound.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// endToEnd turns one measured phase into the end-to-end metrics. It must
// run while the system under test is still open, and it releases the
// latencies once they are summarised: their number grows with throughput,
// and a faster system must not read as a larger heap.
func endToEnd(w workload, res *loopResult, setupS float64) map[string]metric {
	lat := sortedCopy(res.latMS)
	n, p50, tail := len(lat), percentile(lat, 50), percentile(lat, w.tailPct)
	res.latMS = nil
	// The tail is printed, not bounded: on the reference box a slow minute
	// moves a p99 three times as far as it moves the median, and its spread
	// over ten runs reached 28%, past any bound a metric may carry.
	supported := "no percentile has ten"
	if p := supportedTail(n); p > 0 {
		supported = fmt.Sprintf("p%g is the highest with ten", p)
	}
	fmt.Printf("%s: n=%d timed operations, p%g %.6g ms (%d samples beyond; %s)\n",
		w.name, n, w.tailPct, tail, samplesBeyond(n, w.tailPct), supported)
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"solve_ms_p50": {p50, "ms"},
		"solves_per_s": {float64(res.attempted-res.failed) / res.wall.Seconds(), "1/s"},
		"live_heap_mb": {liveHeapMB(), "MB"},
	}
}

// runUntraced measures the end-to-end metrics: no recorder, no probes.
func runUntraced(w workload, seed int64, seconds int) (report, error) {
	in, err := newInputs(w, seed)
	if err != nil {
		return report{}, err
	}
	var t target
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if t != nil {
			if err := t.close(); err != nil {
				return report{}, err
			}
			// The repeats are the benchmark's doing; what they leave behind
			// must not count towards the workload's peak memory.
			t = nil
			runtime.GC()
		}
		var d time.Duration
		if t, d, err = setup(w, in, seed, nil, 0); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if err := finishWarmup(t); err != nil {
		return report{}, fmt.Errorf("warm-up: %w", err)
	}
	res := closedLoop(t, w.clients, time.Duration(seconds)*time.Second, nil, 0)
	metrics := endToEnd(w, &res, median(setups))
	fmt.Printf("%s: peak resident set %.1f MB (not a bounded metric: it moves with collector timing)\n", w.name, peakRSSMB())
	if err := t.close(); err != nil {
		return report{}, err
	}
	if res.firstErr != nil {
		fmt.Println("first failure:", res.firstErr)
	}
	return report{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: metrics,
	}, nil
}
