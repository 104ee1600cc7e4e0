package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
)

// fleetReport is the machine-readable result of `popbench -fleet`, written
// as BENCH_fleet.json. Three measured phases share one workload (a closed
// loop drawing from a small set of distinct right-hand sides):
//
//   - baseline: one single-process service, no router — the floor the
//     fleet gates against.
//   - fleet: the full router stack (sharding + singleflight + result
//     cache). The ≥5× throughput and ≤2× p99 gates apply here: on a
//     repeating workload the cache answers most requests, which is the
//     point — determinism makes a completed solve reusable.
//   - fleet_nocache: the same fleet with caching and dedup disabled — the
//     honest dispatch-only number. Ungated; recorded so the report never
//     confuses cache wins with routing wins; its ratio to the baseline
//     is recorded as nocache_speedup_x.
type fleetReport struct {
	Name      string               `json:"name"`
	Timestamp string               `json:"timestamp"`
	Hardware  experiments.Hardware `json:"hardware"`
	Grid      string               `json:"grid"`
	Method    string               `json:"method"`
	Precond   string               `json:"precond"`
	Workers   int                  `json:"workers"`
	// DistinctRHS is the number of distinct right-hand sides the closed
	// loop cycles through (the knob that sets the steady-state hit ratio).
	DistinctRHS int `json:"distinct_rhs"`

	Baseline    loadPhase  `json:"baseline"`
	Fleet       fleetPhase `json:"fleet"`
	FleetNoCach fleetPhase `json:"fleet_nocache"`

	// Sweep records throughput as a function of the cache-hit ratio: the
	// distinct-RHS working set grows past a fixed small cache capacity
	// (sweepCacheCap entries), so the series walks from the all-hit regime
	// into LRU thrash — the EXPERIMENTS.md series.
	SweepCacheCap int          `json:"sweep_cache_capacity"`
	Sweep         []sweepPoint `json:"hit_ratio_sweep"`

	// SpeedupX is fleet throughput / baseline throughput (gated ≥5).
	SpeedupX float64 `json:"speedup_x"`
	// P99RatioX is fleet p99 / baseline p99 (gated ≤2).
	P99RatioX float64 `json:"p99_ratio_x"`
	TargetOK  bool    `json:"target_ok"`

	// NoCacheSpeedupX is dispatch-only (no-cache) fleet throughput /
	// baseline throughput. Recorded, not gated.
	NoCacheSpeedupX float64 `json:"nocache_speedup_x"`
}

// fleetPhase is one fleet closed-loop phase plus its router counters.
type fleetPhase struct {
	loadPhase
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	Deduped     int64   `json:"deduped"`
	HitRatio    float64 `json:"hit_ratio"`
}

// sweepPoint is one entry of the hit-ratio sweep.
type sweepPoint struct {
	DistinctRHS  int     `json:"distinct_rhs"`
	HitRatio     float64 `json:"hit_ratio"`
	SolvesPerSec float64 `json:"solves_per_sec"`
}

// Fleet acceptance gates (ISSUE: ≥5× throughput, p99 ≤ 2× single-shard).
const (
	fleetSpeedupTarget = 5.0
	fleetP99Ratio      = 2.0
)

// sweepCacheCap is the deliberately small cache the hit-ratio sweep runs
// against, so growing the working set actually degrades the hit ratio.
const sweepCacheCap = 16

// fleetVariantRHS builds the j-th distinct right-hand side: the same
// smooth family benchRHS draws from, phase-shifted per variant so each
// hashes differently but solves comparably.
func fleetVariantRHS(g *pop.Grid, j int) []float64 {
	b := make([]float64, g.N())
	shift := float64(j)
	for k, ocean := range g.Mask {
		if ocean {
			b[k] = math.Sin(g.TLon[k]/20+shift) * math.Cos(g.TLat[k]/15)
		}
	}
	return b
}

// closedLoop drives clients goroutines at solve for seconds, cycling each
// client through the workload vectors, and returns the measured phase.
func closedLoop(seconds float64, clients int, workload [][]float64,
	solve func(b []float64) error) loadPhase {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []float64
		solves   int64
		failures int64
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []float64
			for i := c; time.Now().Before(deadline); i++ {
				b := workload[i%len(workload)]
				t0 := time.Now()
				if err := solve(b); err != nil {
					atomic.AddInt64(&failures, 1)
					continue
				}
				atomic.AddInt64(&solves, 1)
				mine = append(mine, float64(time.Since(t0).Microseconds())/1e3)
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return loadPhase{
		Clients:      clients,
		DurationSec:  elapsed,
		Solves:       solves,
		Errors:       failures,
		SolvesPerSec: float64(solves) / elapsed,
		LatencyMS:    percentiles(lats),
	}
}

// runFleetBench measures the fleet router against a single-process
// baseline on one box and writes BENCH_fleet.json. The workload cycles
// through `distinct` right-hand sides; every phase pre-warms its
// sessions (and, for the cached phase, the cache) outside the timed
// window so the numbers are steady-state.
func runFleetBench(dir string, seconds float64, clients, workers, distinct int, out io.Writer) error {
	const (
		gridName = "test"
		method   = pop.MethodPCSI
		precond  = pop.PrecondEVP
	)
	g, err := pop.NewGrid(gridName)
	if err != nil {
		return err
	}
	workload := make([][]float64, distinct)
	for j := range workload {
		workload[j] = fleetVariantRHS(g, j)
	}
	workerOpts := pop.ServiceOptions{Cores: 4, MaxSessionsPerKey: 2}
	req := func(b []float64) pop.ServeRequest {
		return pop.ServeRequest{Grid: gridName, Method: method, Precond: precond, B: b}
	}

	// Phase 1: single-process baseline.
	fmt.Fprintf(out, "# fleet: baseline — 1 service, %d clients, %d distinct RHS, %.1fs\n",
		clients, distinct, seconds)
	svc := pop.NewService(workerOpts)
	for _, b := range workload {
		if _, err := svc.Solve(context.Background(), req(b)); err != nil {
			closeService(svc)
			return fmt.Errorf("baseline warm-up: %w", err)
		}
	}
	baseline := closedLoop(seconds, clients, workload, func(b []float64) error {
		_, err := svc.Solve(context.Background(), req(b))
		return err
	})
	baseline.Sessions = int(svc.Snapshot().Sessions)
	closeService(svc)
	fmt.Fprintf(out, "# fleet: baseline %.0f solves/s, p99 %.2fms\n",
		baseline.SolvesPerSec, baseline.LatencyMS.P99)

	// Phase 2: the full fleet (sharding + singleflight + cache).
	cached, err := runFleetPhase("fleet", seconds, clients, workers, 0, workload, workerOpts, req, false, out)
	if err != nil {
		return err
	}

	// Phase 3: honesty — same fleet, cache and dedup off.
	nocache, err := runFleetPhase("fleet_nocache", seconds, clients, workers, 0, workload, workerOpts, req, true, out)
	if err != nil {
		return err
	}

	// Hit-ratio sweep for EXPERIMENTS.md: working set vs a small fixed
	// cache. k ≤ capacity stays in the all-hit regime; k beyond it makes
	// the cycling workload thrash the LRU and throughput falls back toward
	// the dispatch floor.
	var sweep []sweepPoint
	for _, k := range []int{1, 4, 16, 24, 64} {
		wl := make([][]float64, k)
		for j := range wl {
			wl[j] = fleetVariantRHS(g, j)
		}
		p, err := runFleetPhase(fmt.Sprintf("sweep k=%d", k), seconds/2, clients, workers, sweepCacheCap, wl, workerOpts, req, false, out)
		if err != nil {
			return err
		}
		sweep = append(sweep, sweepPoint{DistinctRHS: k, HitRatio: p.HitRatio, SolvesPerSec: p.SolvesPerSec})
	}

	hw := experiments.DetectHardware(0)
	rep := fleetReport{
		Name:          "fleet",
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Hardware:      hw,
		Grid:          gridName,
		Method:        method.String(),
		Precond:       precond.String(),
		Workers:       workers,
		DistinctRHS:   distinct,
		Baseline:      baseline,
		Fleet:         cached,
		FleetNoCach:   nocache,
		SweepCacheCap: sweepCacheCap,
		Sweep:         sweep,
		SpeedupX:      cached.SolvesPerSec / baseline.SolvesPerSec,
	}
	rep.NoCacheSpeedupX = nocache.SolvesPerSec / baseline.SolvesPerSec
	if baseline.LatencyMS.P99 > 0 {
		rep.P99RatioX = cached.LatencyMS.P99 / baseline.LatencyMS.P99
	}
	rep.TargetOK = rep.SpeedupX >= fleetSpeedupTarget && rep.P99RatioX <= fleetP99Ratio

	fmt.Fprintf(out, "# fleet: speedup %.1fx (gate ≥%.0fx), p99 ratio %.2fx (gate ≤%.0fx), dispatch-only %.2fx\n",
		rep.SpeedupX, fleetSpeedupTarget, rep.P99RatioX, fleetP99Ratio, rep.NoCacheSpeedupX)

	path := filepath.Join(dir, "BENCH_fleet.json")
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "# fleet: report %s\n", path)

	if !rep.TargetOK {
		return fmt.Errorf("fleet: speedup %.1fx / p99 ratio %.2fx missed the gates (≥%.0fx, ≤%.0fx)",
			rep.SpeedupX, rep.P99RatioX, fleetSpeedupTarget, fleetP99Ratio)
	}
	return nil
}

// runFleetPhase builds a fresh fleet, warms every workload vector through
// it (populating sessions, and the cache unless disabled), runs the closed
// loop, and returns the phase with router counters attached.
func runFleetPhase(label string, seconds float64, clients, workers, cacheCap int,
	workload [][]float64, workerOpts pop.ServiceOptions,
	req func([]float64) pop.ServeRequest, noCache bool, out io.Writer) (fleetPhase, error) {
	opts := pop.FleetOptions{Workers: workers, Worker: workerOpts, CacheCapacity: cacheCap}
	if noCache {
		opts.CacheCapacity = -1
		opts.DisableDedup = true
	}
	flt, err := pop.NewFleet(opts)
	if err != nil {
		return fleetPhase{}, err
	}
	defer closeFleetBench(flt)
	for _, b := range workload {
		if _, err := flt.Solve(context.Background(), pop.FleetRequest{Request: req(b)}); err != nil {
			return fleetPhase{}, fmt.Errorf("%s warm-up: %w", label, err)
		}
	}
	warmStats := flt.Stats(context.Background())
	load := closedLoop(seconds, clients, workload, func(b []float64) error {
		_, err := flt.Solve(context.Background(), pop.FleetRequest{Request: req(b)})
		return err
	})
	stats := flt.Stats(context.Background())
	load.Sessions = int(stats.Totals.Sessions)
	load.Batches = stats.Totals.Batches
	if load.Batches > 0 {
		load.MeanBatch = float64(stats.Totals.Solves) / float64(load.Batches)
	}
	p := fleetPhase{
		loadPhase:   load,
		CacheHits:   stats.Fleet.CacheHits - warmStats.Fleet.CacheHits,
		CacheMisses: stats.Fleet.CacheMisses - warmStats.Fleet.CacheMisses,
		Deduped:     stats.Fleet.Deduped - warmStats.Fleet.Deduped,
	}
	if total := p.CacheHits + p.CacheMisses + p.Deduped; total > 0 {
		p.HitRatio = float64(p.CacheHits) / float64(total)
	}
	fmt.Fprintf(out, "# fleet: %s — %.0f solves/s, p99 %.2fms, hit ratio %.3f (%d workers)\n",
		label, load.SolvesPerSec, load.LatencyMS.P99, p.HitRatio, workers)
	return p, nil
}

// closeFleetBench drains a benchmark fleet.
func closeFleetBench(flt *pop.Fleet) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := flt.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: fleet drain: %v\n", err)
	}
}
