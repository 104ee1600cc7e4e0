package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
)

// serveReport is the machine-readable result of `popbench -serve`,
// written as BENCH_serve.json. Load is the closed-loop throughput phase;
// Overload drives a deliberately tiny queue past capacity to demonstrate
// shedding with ErrOverloaded instead of blocking.
type serveReport struct {
	Name      string               `json:"name"`
	Timestamp string               `json:"timestamp"`
	Hardware  experiments.Hardware `json:"hardware"`
	Grid      string               `json:"grid"`
	Method    string               `json:"method"`
	Precond   string               `json:"precond"`
	Load      loadPhase            `json:"load"`
	Overload  overloadPhase        `json:"overload"`
	Service   pop.ServiceStats     `json:"service_counters"`
	TargetOK  bool                 `json:"target_ok"` // ≥ TargetRate solves/s sustained
	Target    float64              `json:"target_solves_per_sec"`
}

type loadPhase struct {
	Clients      int     `json:"clients"`
	Sessions     int     `json:"sessions"`
	DurationSec  float64 `json:"duration_sec"`
	Solves       int64   `json:"solves"`
	Errors       int64   `json:"errors"`
	SolvesPerSec float64 `json:"solves_per_sec"`
	Batches      int64   `json:"batches"`
	MeanBatch    float64 `json:"mean_batch_size"`
	LatencyMS    latency `json:"latency_ms"`
}

type latency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type overloadPhase struct {
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed"`
	Answered int64 `json:"answered"`
}

// targetServeRate is the acceptance floor: the service must sustain this
// many solves/s on the small grid in the closed-loop phase.
const targetServeRate = 200

// runServeBench drives the in-process solve service: a closed-loop
// throughput phase on the test grid (pcsi+evp, the paper's fast path),
// then an overload phase that forces load shedding. The report lands in
// dir/BENCH_serve.json (dir "" = current directory). A non-empty
// perfettoPath enables rank-level tracing during the load phase and writes
// its Perfetto export there for cmd/poptrace.
func runServeBench(dir string, seconds float64, clients int, perfettoPath string, out io.Writer) error {
	const (
		gridName = "test"
		method   = pop.MethodPCSI
		precond  = pop.PrecondEVP
	)
	opts := pop.ServiceOptions{
		Cores:             4,
		MaxSessionsPerKey: 2,
	}
	if perfettoPath != "" {
		opts.TraceCapacity = 1 << 14
	}
	svc := pop.NewService(opts)
	defer closeService(svc)

	g, err := pop.NewGrid(gridName)
	if err != nil {
		return err
	}
	rhs := benchRHS(g)

	// Warm the pool outside the timed window so the report measures
	// steady-state serving, not operator assembly and EVP factorization.
	warm := pop.ServeRequest{Grid: gridName, Method: method, Precond: precond, B: rhs}
	if _, err := svc.Solve(context.Background(), warm); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}

	fmt.Fprintf(out, "# serve: %d closed-loop clients on %s/%s+%s for %.1fs\n",
		clients, gridName, method, precond, seconds)
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
		go func() {
			defer wg.Done()
			var mine []float64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := svc.Solve(context.Background(), pop.ServeRequest{
					Grid: gridName, Method: method, Precond: precond, B: rhs,
				})
				if err != nil {
					atomic.AddInt64(&failures, 1)
					continue
				}
				atomic.AddInt64(&solves, 1)
				mine = append(mine, float64(time.Since(t0).Microseconds())/1e3)
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	snap := svc.Snapshot()

	if perfettoPath != "" {
		f, err := os.Create(perfettoPath)
		if err != nil {
			return err
		}
		if err := svc.WritePerfetto(f); err != nil {
			f.Close()
			return fmt.Errorf("perfetto export: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "# serve: perfetto trace %s\n", perfettoPath)
	}

	rep := serveReport{
		Name:      "serve",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Hardware:  experiments.DetectHardware(0),
		Grid:      gridName,
		Method:    method.String(),
		Precond:   precond.String(),
		Target:    targetServeRate,
		Load: loadPhase{
			Clients:      clients,
			Sessions:     int(snap.Sessions),
			DurationSec:  elapsed,
			Solves:       solves,
			Errors:       failures,
			SolvesPerSec: float64(solves) / elapsed,
			Batches:      snap.Batches,
			LatencyMS:    percentiles(lats),
		},
	}
	if snap.Batches > 0 {
		rep.Load.MeanBatch = float64(snap.Solves) / float64(snap.Batches)
	}
	rep.TargetOK = rep.Load.SolvesPerSec >= targetServeRate
	fmt.Fprintf(out, "# serve: %.0f solves/s (%d solves, %d sessions, mean batch %.2f), p99 %.2fms\n",
		rep.Load.SolvesPerSec, solves, snap.Sessions, rep.Load.MeanBatch, rep.Load.LatencyMS.P99)

	over, err := runOverloadPhase(out)
	if err != nil {
		return err
	}
	rep.Overload = over
	rep.Service = svc.Snapshot()

	path := filepath.Join(dir, "BENCH_serve.json")
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
	fmt.Fprintf(out, "# serve: report %s\n", path)
	if !rep.TargetOK {
		return fmt.Errorf("serve: %.0f solves/s below the %d solves/s target",
			rep.Load.SolvesPerSec, int64(targetServeRate))
	}
	if rep.Overload.Shed == 0 {
		return errors.New("serve: overload phase shed nothing — backpressure untested")
	}
	return nil
}

// runOverloadPhase drives a deliberately tiny queue (capacity 2, one
// un-batched worker, slow ill-conditioned solves) with a synchronized
// burst so admission control must shed. Threads=1 keeps the solve on one
// scheduler thread; the burst's callers are all runnable before the worker
// is next scheduled, so they fill (and overflow) the queue first — also
// under GOMAXPROCS=1, where a running solve gives way to other goroutines
// only through the runtime's asynchronous preemption.
func runOverloadPhase(out io.Writer) (overloadPhase, error) {
	svc := pop.NewService(pop.ServiceOptions{
		Tau:               200000, // ill-conditioned: slow solves hold the queue full
		Threads:           1,
		MaxSessionsPerKey: 1,
		MaxQueue:          2,
		MaxBatch:          1,
		Solver:            pop.SolverOptions{Tol: 1e-12, MaxIters: 200000},
	})
	defer closeService(svc)

	g, err := pop.NewGrid("test")
	if err != nil {
		return overloadPhase{}, err
	}
	rhs := benchRHS(g)
	req := pop.ServeRequest{Grid: "test", Method: pop.MethodChronGear, Precond: pop.PrecondIdentity, B: rhs}
	if _, err := svc.Solve(context.Background(), req); err != nil && !errors.Is(err, pop.ErrNotConverged) {
		return overloadPhase{}, fmt.Errorf("overload warm-up: %w", err)
	}

	const burst = 30
	var (
		wg       sync.WaitGroup
		shed     int64
		answered int64
	)
	gate := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			_, err := svc.Solve(context.Background(), req)
			switch {
			case errors.Is(err, pop.ErrOverloaded):
				atomic.AddInt64(&shed, 1)
			case err == nil, errors.Is(err, pop.ErrNotConverged):
				atomic.AddInt64(&answered, 1)
			}
		}()
	}
	close(gate)
	wg.Wait()

	fmt.Fprintf(out, "# serve: overload burst of %d → %d answered, %d shed with ErrOverloaded\n",
		burst, answered, shed)
	return overloadPhase{Requests: burst, Shed: shed, Answered: answered}, nil
}

func closeService(svc *pop.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: service drain: %v\n", err)
	}
}

func benchRHS(g *pop.Grid) []float64 {
	b := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			b[k] = math.Sin(g.TLon[k]/20) * math.Cos(g.TLat[k]/15)
		}
	}
	return b
}

// percentiles summarizes latencies (ms) without interpolation: pN is the
// smallest observation ≥ N% of the sample.
func percentiles(ms []float64) latency {
	if len(ms) == 0 {
		return latency{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		return ms[i]
	}
	return latency{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: ms[len(ms)-1]}
}
