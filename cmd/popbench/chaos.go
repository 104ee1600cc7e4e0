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

// chaosReport is the machine-readable result of `popbench -chaos`, written
// as BENCH_chaos.json: a fault-free baseline phase followed by one
// closed-loop phase per fault class, each on a fresh service wired to a
// deterministic injector for that class alone.
type chaosReport struct {
	Name      string               `json:"name"`
	Timestamp string               `json:"timestamp"`
	Hardware  experiments.Hardware `json:"hardware"`
	Grid      string               `json:"grid"`
	Method    string               `json:"method"`
	Precond   string               `json:"precond"`
	Clients   int                  `json:"clients"`
	Baseline  chaosPhase           `json:"baseline"`
	Classes   []chaosPhase         `json:"classes"`
}

// chaosPhase is one closed-loop window. Recovered/Retried/Faulted come from
// the service counters; Injected and Recoveries from the injector. Under
// the free cost model straggler delays are virtual-clock only, so their
// wall-latency delta is expected to be ≈ 0 — the injection counts prove the
// class fired.
type chaosPhase struct {
	Class          string           `json:"class"`
	Plan           pop.FaultPlan    `json:"plan"`
	DurationSec    float64          `json:"duration_sec"`
	Solves         int64            `json:"solves"`
	Failures       int64            `json:"failures"`
	SolvesPerSec   float64          `json:"solves_per_sec"`
	RecoveryRate   float64          `json:"recovery_rate"`
	LatencyMS      latency          `json:"latency_ms"`
	AddedP50MS     float64          `json:"added_latency_p50_ms"`
	Injected       map[string]int64 `json:"injected,omitempty"`
	Recoveries     map[string]int64 `json:"recoveries,omitempty"`
	ServiceCounter pop.ServiceStats `json:"service_counters"`
}

// latency summarizes one phase's per-request latencies in milliseconds.
type latency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
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

// benchRHS is the smooth right-hand side the -chaos and -sstep runs solve.
func benchRHS(g *pop.Grid) []float64 {
	b := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			b[k] = math.Sin(g.TLon[k]/20) * math.Cos(g.TLat[k]/15)
		}
	}
	return b
}

func closeService(svc *pop.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: service drain: %v\n", err)
	}
}

// chaosRecoveryFloor is the acceptance gate: under each class's plan at
// least this fraction of requests must complete successfully.
const chaosRecoveryFloor = 0.95

// chaosPlans pairs each fault class with a plan calibrated for the bench
// configuration below: 4 virtual ranks on the test grid, P-CSI+EVP at the
// production tolerance (~150 iterations, ~15 convergence checks per solve).
// Probabilities are per draw site, so the per-solve expectation is the
// probability times the site count (halo: iters × 2 phases × ranks;
// reductions: one per check; crash: checks × ranks).
func chaosPlans() []struct {
	class string
	plan  pop.FaultPlan
} {
	return []struct {
		class string
		plan  pop.FaultPlan
	}{
		{"straggler", pop.FaultPlan{Seed: 101, StragglerProb: 0.05, StragglerDelay: 2e-3}},
		{"halo-drop", pop.FaultPlan{Seed: 102, HaloDropProb: 0.002}},
		{"halo-corrupt", pop.FaultPlan{Seed: 103, HaloCorruptProb: 0.001}},
		{"reduce-fail", pop.FaultPlan{Seed: 104, ReduceFailProb: 0.05}},
		{"rank-crash", pop.FaultPlan{Seed: 105, CrashProb: 0.005}},
	}
}

// runChaosBench measures the resilient serving path: what each fault class
// costs in throughput and latency, and whether recovery holds the success
// rate above the floor. The report lands in dir/BENCH_chaos.json.
func runChaosBench(dir string, seconds float64, clients int, out io.Writer) error {
	const (
		gridName = "test"
		method   = pop.MethodPCSI
		precond  = pop.PrecondEVP
	)
	g, err := pop.NewGrid(gridName)
	if err != nil {
		return err
	}
	rhs := benchRHS(g)
	req := pop.ServeRequest{Grid: gridName, Method: method, Precond: precond, B: rhs}

	run := func(class string, plan pop.FaultPlan) (chaosPhase, error) {
		var inj *pop.FaultInjector
		if plan.Active() {
			inj = pop.NewFaultInjector(plan)
		}
		svc := pop.NewService(pop.ServiceOptions{
			Cores:             4,
			MaxSessionsPerKey: 2,
			Injector:          inj,
			RetryBudget:       1,
			Solver:            pop.SolverOptions{MaxRecoveries: 200},
		})
		defer closeService(svc)
		if _, err := svc.Solve(context.Background(), req); err != nil {
			return chaosPhase{}, fmt.Errorf("chaos %s warm-up: %w", class, err)
		}

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
					if _, err := svc.Solve(context.Background(), req); err != nil {
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

		ph := chaosPhase{
			Class:          class,
			Plan:           plan,
			DurationSec:    elapsed,
			Solves:         solves,
			Failures:       failures,
			SolvesPerSec:   float64(solves) / elapsed,
			LatencyMS:      percentiles(lats),
			ServiceCounter: svc.Snapshot(),
		}
		if total := solves + failures; total > 0 {
			ph.RecoveryRate = float64(solves) / float64(total)
		}
		if inj != nil {
			ph.Injected = inj.Injected()
			ph.Recoveries = inj.Recoveries()
		}
		return ph, nil
	}

	fmt.Fprintf(out, "# chaos: %d clients on %s/%s+%s, %.1fs per phase\n",
		clients, gridName, method, precond, seconds)
	rep := chaosReport{
		Name:      "chaos",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Hardware:  experiments.DetectHardware(0),
		Grid:      gridName,
		Method:    method.String(),
		Precond:   precond.String(),
		Clients:   clients,
	}
	if rep.Baseline, err = run("none", pop.FaultPlan{}); err != nil {
		return err
	}
	fmt.Fprintf(out, "# chaos: baseline %.0f solves/s, p50 %.2fms\n",
		rep.Baseline.SolvesPerSec, rep.Baseline.LatencyMS.P50)

	var failedGates []string
	for _, cp := range chaosPlans() {
		ph, err := run(cp.class, cp.plan)
		if err != nil {
			return err
		}
		ph.AddedP50MS = ph.LatencyMS.P50 - rep.Baseline.LatencyMS.P50
		rep.Classes = append(rep.Classes, ph)
		injected := int64(0)
		for _, v := range ph.Injected {
			injected += v
		}
		fmt.Fprintf(out, "# chaos: %-12s %6.0f solves/s, recovery %.3f, +p50 %+.2fms, %d injected\n",
			cp.class, ph.SolvesPerSec, ph.RecoveryRate, ph.AddedP50MS, injected)
		if injected == 0 {
			failedGates = append(failedGates, cp.class+": injected nothing")
		}
		if ph.RecoveryRate < chaosRecoveryFloor {
			failedGates = append(failedGates,
				fmt.Sprintf("%s: recovery rate %.3f below %.2f", cp.class, ph.RecoveryRate, chaosRecoveryFloor))
		}
	}

	path := filepath.Join(dir, "BENCH_chaos.json")
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
	fmt.Fprintf(out, "# chaos: report %s\n", path)
	if len(failedGates) > 0 {
		return errors.New("chaos: " + failedGates[0])
	}
	return nil
}
