// Command popsolve runs a single barotropic solve and prints the
// convergence summary — handy for comparing solver/preconditioner
// combinations on one grid.
//
//	popsolve -grid 1deg -method pcsi -precond evp -cores 768 -machine yellowstone
//
// Observability: -trace writes the per-phase JSONL span trace, -metrics
// the Prometheus-style run metrics, -pprof serves the Go profiler.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/comm"
	"repro/internal/obs"
)

func main() {
	var (
		gridName   = flag.String("grid", "test", "grid preset: test, 1deg, 0.1deg, 0.1deg-scaled")
		method     = flag.String("method", "chrongear", "solver: chrongear, pcg, pipecg, pcsi, csi, sstep")
		precond    = flag.String("precond", "diagonal", "preconditioner: diagonal, evp, blocklu, none")
		cores      = flag.Int("cores", 0, "virtual core count (0 = single rank)")
		threads    = flag.Int("threads", 0, "worker shards: max virtual ranks running concurrently (0 = GOMAXPROCS)")
		sstep      = flag.Int("sstep", 0, "s-step block size for -method sstep (0 = default 4; matvecs per global reduction)")
		machine    = flag.String("machine", "yellowstone", "machine model: yellowstone, edison, ideal, or empty")
		tol        = flag.Float64("tol", 1e-13, "relative convergence tolerance")
		tau        = flag.Float64("tau", 1920, "barotropic time step (s)")
		traceOut   = flag.String("trace", "", "write JSONL span/event trace to this file")
		metricsOut = flag.String("metrics", "", "write Prometheus-style metrics to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	obs.ServePprof(*pprofAddr)

	g, err := pop.NewGrid(*gridName)
	fatalIf(err)
	fmt.Printf("grid %s: %d×%d, %.0f%% ocean\n", g.Name, g.Nx, g.Ny, 100*g.OceanFraction())

	m, err := pop.ParseMethod(*method)
	fatalIf(err)
	pc, err := pop.ParsePrecond(*precond)
	fatalIf(err)
	solver, err := pop.NewSolver(g, pop.SolverSpec{
		Method: m, Precond: pc, Cores: *cores, Threads: *threads,
		MachineName: *machine, Tau: *tau,
		Options: pop.SolverOptions{Tol: *tol, SStep: *sstep},
	})
	fatalIf(err)
	fmt.Printf("solver %s+%s on %d virtual cores (%d worker shards)\n",
		solver.Spec.Method, solver.Spec.Precond, solver.Cores,
		solver.Session.W.EffectiveThreads())

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
		solver.Session.W.Tracer = tracer
	}

	// Solve A·x = b for a known smooth x so the error is checkable.
	op := solver.Op
	xTrue := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			lon := g.TLon[k] * math.Pi / 180
			lat := g.TLat[k] * math.Pi / 180
			xTrue[k] = math.Sin(2*lon) * math.Cos(3*lat)
		}
	}
	b := make([]float64, g.N())
	op.Apply(b, xTrue)
	for k, ocean := range g.Mask {
		if !ocean {
			b[k] = 0
		}
	}

	res, x, err := solver.Solve(b, nil)
	fatalIf(err)

	var maxErr float64
	for k, ocean := range g.Mask {
		if ocean {
			if d := math.Abs(x[k] - xTrue[k]); d > maxErr {
				maxErr = d
			}
		}
	}
	fmt.Printf("converged=%v iterations=%d rel_residual=%.3g max_error=%.3g\n",
		res.Converged, res.Iterations, res.RelResidual, maxErr)
	if res.EigSteps > 0 {
		fmt.Printf("lanczos: %d steps, interval [%.4g, %.4g]\n", res.EigSteps, res.Nu, res.Mu)
	}
	if *machine != "" {
		sum := res.Stats.MeanCounters()
		fmt.Printf("virtual time/solve: %.4gs (comp %.4g, halo %.4g, reduce %.4g)\n",
			res.Stats.MaxClock, sum.TComp, sum.THalo, sum.TReduce)
		fmt.Printf("per-rank averages: %d reductions, %d halo messages, %.1f KB halo traffic\n",
			res.Stats.Sum.Reductions/int64(len(res.Stats.PerRank)),
			res.Stats.Sum.HaloMsgs/int64(len(res.Stats.PerRank)),
			float64(res.Stats.Sum.HaloBytes)/float64(len(res.Stats.PerRank))/1024)
		printBreakdown(&res.Stats)
	}

	if tracer != nil {
		events := tracer.Events()
		obs.SummarizeReduces(events).Fprint(os.Stdout)
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "popsolve: trace ring dropped %d events (oldest lost)\n", d)
		}
		fatalIf(obs.DumpTrace(tracer, *traceOut))
		fmt.Printf("trace: %s (%d events)\n", *traceOut, len(events))
	}
	if *metricsOut != "" {
		fatalIf(obs.DumpMetrics(solveRegistry(&res, tracer), *metricsOut))
		fmt.Printf("metrics: %s\n", *metricsOut)
	}
}

// printBreakdown renders the paper's §2.2 per-phase timers — execution
// time split into computation, boundary update and global reduction —
// as per-rank min/mean/max over the run.
func printBreakdown(st *comm.Stats) {
	comp, halo, reduce := st.Breakdown()
	fmt.Printf("per-rank phase breakdown over %d ranks (virtual s):\n", len(st.PerRank))
	fmt.Printf("%-8s  %12s  %12s  %12s\n", "phase", "min", "mean", "max")
	for _, p := range []struct {
		name string
		s    comm.PhaseStat
	}{{"TComp", comp}, {"THalo", halo}, {"TReduce", reduce}} {
		fmt.Printf("%-8s  %12.6g  %12.6g  %12.6g\n", p.name, p.s.Min, p.s.Mean, p.s.Max)
	}
}

// solveRegistry collects the run's headline numbers as metrics.
func solveRegistry(res *pop.Result, tracer *obs.Tracer) *obs.Registry {
	reg := obs.NewRegistry()
	conv := 0.0
	if res.Converged {
		conv = 1
	}
	reg.Gauge("popsolve_converged", "1 when the solve met its tolerance").Set(conv)
	reg.Counter("popsolve_iterations_total", "solver iterations run").Add(int64(res.Iterations))
	reg.Gauge("popsolve_rel_residual", "final relative residual").Set(res.RelResidual)
	reg.Gauge("popsolve_solve_virtual_seconds", "slowest rank's virtual clock").Set(res.Stats.MaxClock)
	mean := res.Stats.MeanCounters()
	for _, p := range []struct {
		phase string
		v     float64
	}{{"comp", mean.TComp}, {"halo", mean.THalo}, {"reduce", mean.TReduce}} {
		reg.Gauge(`popsolve_phase_virtual_seconds{phase="`+p.phase+`"}`,
			"per-rank mean virtual seconds by phase").Set(p.v)
	}
	reg.Counter("popsolve_flops_total", "floating-point operations across ranks").Add(res.Stats.Sum.Flops)
	reg.Counter("popsolve_reductions_total", "global reductions across ranks").Add(res.Stats.Sum.Reductions)
	reg.Counter("popsolve_halo_messages_total", "halo messages across ranks").Add(res.Stats.Sum.HaloMsgs)
	reg.Counter("popsolve_halo_bytes_total", "halo payload bytes across ranks").Add(res.Stats.Sum.HaloBytes)
	if res.EigSteps > 0 {
		reg.Gauge("popsolve_lanczos_steps", "Lanczos steps used for the eigenvalue bounds").Set(float64(res.EigSteps))
		reg.Gauge("popsolve_chebyshev_nu", "Chebyshev interval lower bound").Set(res.Nu)
		reg.Gauge("popsolve_chebyshev_mu", "Chebyshev interval upper bound").Set(res.Mu)
	}
	if tracer != nil {
		h := reg.Histogram("popsolve_reduce_wait_seconds",
			"per-reduction wait for the slowest rank",
			[]float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1})
		for _, e := range tracer.Events() {
			if e.Name == obs.EvReduce && !e.Point {
				h.Observe(e.Wait)
			}
		}
		reg.Counter("popsolve_trace_dropped_events_total",
			"events lost to trace ring wraparound").Add(tracer.Dropped())
	}
	return reg
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "popsolve:", err)
		os.Exit(1)
	}
}
