package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// ledger collects the per-layer metrics of one traced run. Every probe
// runs inside a span named probe.<metric> so the span file shows what the
// traced run spent its time on.
type ledger struct {
	rec  *recorder
	root int
	m    map[string]metric
}

func (l *ledger) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// span runs f inside the span probe.<name>.
func (l *ledger) span(name string, f func() error) error {
	id := l.rec.begin("probe."+name, l.root, 0)
	defer l.rec.end(id)
	if err := f(); err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// medianOf runs f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// perCall calls f in batches until a batch lasts at least 20 ms, then
// returns the median over three such batches of the time one call took, in
// nanoseconds. Kernels of a few microseconds need the batching; the median
// drops a batch a scheduler hiccup landed in.
func perCall(f func()) float64 {
	const floor = 20 * time.Millisecond
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= floor || n >= 1<<24 {
			break
		}
		n *= 2
	}
	return float64(medianOf(3, func() {
		for i := 0; i < n; i++ {
			f()
		}
	})) / float64(n)
}

// mallocs reports how many heap objects and bytes f allocated.
func mallocs(f func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// watchGoroutines samples the goroutine count until stop is closed and
// returns the peak it saw.
func watchGoroutines(stop <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return out
}

// exactCounts are the per-layer metrics that count events of a
// deterministic program, or price them with a deterministic model, and so
// must repeat bit for bit for one seed. -compare checks that they do.
var exactCounts = []string{
	"decomp.ranks", "decomp.land_blocks_dropped", "decomp.block_pts_median",
	"evp.march_growth", "api.frame_req_bytes",
	"core.iters_per_solve", "core.eig_steps",
	"comm.reductions_per_solve", "comm.halo_msgs_per_solve", "comm.halo_kb_per_solve",
	"perfmodel.virtual_ms", "perfmodel.virtual_comp_ms", "perfmodel.virtual_halo_ms",
	"perfmodel.virtual_reduce_ms", "perfmodel.predicted_ms",
}

// Traced phases are shorter than the untraced run: the spans-off phase
// gives the latency the spans-on phase is compared with.
const (
	plainShare  = 8 // spans off: seconds/8
	tracedShare = 4 // spans on: seconds/4
)

// runTraced repeats the workload at quarter length with benchmark-side
// spans on, runs the layer probes, and writes the span file.
func runTraced(w workload, seed int64, seconds int) (report, error) {
	rec := newRecorder()
	root := rec.begin("workload", 0, 0)
	l := &ledger{rec: rec, root: root, m: make(map[string]metric)}

	in, err := newInputs(w, seed)
	if err != nil {
		return report{}, err
	}
	t, _, err := setup(w, in, seed, rec, root)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	if err := finishWarmup(t); err != nil {
		return report{}, fmt.Errorf("warm-up: %w", err)
	}
	unit := time.Duration(seconds) * time.Second
	plain := closedLoop(t, w.clients, unit/plainShare, nil, 0)

	var before fleetSnapshot
	st, isStream := t.(*streamTarget)
	if isStream {
		before = snapshotFleet(st.fleet)
	}
	stop := make(chan struct{})
	peak := watchGoroutines(stop)
	traced := closedLoop(t, w.clients, unit/tracedShare, rec, root)
	close(stop)
	// Read before the probes run: the roofline alone touches gigabytes.
	l.set("rt.peak_rss_mb", peakRSSMB(), "MB")
	l.set("rt.goroutines_peak", float64(<-peak), "count")
	if traced.firstErr != nil {
		fmt.Println("first failure:", traced.firstErr)
	}

	ops := float64(traced.attempted)
	m0, m1 := &traced.before, &traced.after
	l.set("rt.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	l.set("rt.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	l.set("rt.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops, "count")
	l.set("rt.alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ops/1024, "KB")
	lat := sortedCopy(traced.latMS)
	l.set("bench.solve_ms_p50", percentile(lat, 50), "ms")
	l.set("bench.solve_ms_tail", percentile(lat, w.tailPct), "ms")
	l.set("bench.trace_overhead_ratio", median(traced.latMS)/median(plain.latMS), "ratio")
	byName := durationsByName(rec.spans)
	l.set("bench.check_ms_per_op", median(byName["bench.check"])/1e6, "ms")
	l.set("bench.client_prep_us", median(byName["client.prep"])/1e3, "us")

	// The layers a fleet workload crosses are read off its own fleet; a pop
	// workload has none, so a probe fleet stands in (see probeServing).
	if isStream {
		l.fleetLayers(st.fleet, before, traced)
	}
	maxRes := max(plain.maxTrueRes, traced.maxTrueRes)
	if err := t.close(); err != nil {
		return report{}, err
	}
	if err := l.probeAll(w, in, seed, maxRes, isStream); err != nil {
		return report{}, err
	}

	rec.end(root)
	path := filepath.Join("benchmark", "out", "trace_"+w.name+".json")
	if err := rec.write(path, w.name, seed); err != nil {
		return report{}, err
	}
	printSummary(os.Stdout, rec.spans)
	fmt.Printf("%s: %d spans in %s (%d dropped), %d+%d operations\n",
		w.name, len(rec.spans), path, rec.dropped, plain.attempted, traced.attempted)
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: l.m}, nil
}

// probeAll runs every layer probe in turn. Probes that need the workload's
// configuration take it from w; the rest are the same on every workload.
func (l *ledger) probeAll(w workload, in *inputs, seed int64, maxRes float64, haveFleet bool) error {
	lay, err := l.probeSetup(w, in)
	if err != nil {
		return err
	}
	steps := []func() error{
		func() error { return l.probeSolve(w, in, lay, maxRes) },
		func() error { return l.probeKernels(w, lay) },
		func() error { return l.probeComm(lay) },
		func() error { return l.probeFixed60(w, in) },
		func() error { return l.probeAPI() },
		func() error { return l.probeServing(seed, haveFleet) },
		func() error { return l.probeRoofline() },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
