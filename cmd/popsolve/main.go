// Command popsolve runs a single barotropic solve and prints the
// convergence summary — handy for comparing solver/preconditioner
// combinations on one grid.
//
//	popsolve -grid 1deg -method pcsi -precond evp -cores 768 -machine yellowstone
//
// Observability: -trace writes the solve's per-rank events as the Perfetto
// file popserver exports — load it in ui.perfetto.dev or hand it to
// poptrace, whose straggler league this command also prints — and -pprof
// serves the Go profiler.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	var (
		gridName  = flag.String("grid", "test", "grid preset: test, 1deg, 0.1deg, 0.1deg-scaled")
		method    = flag.String("method", "chrongear", "solver: "+strings.Join(core.MethodNames(), ", "))
		precond   = flag.String("precond", "diagonal", "preconditioner: "+strings.Join(core.PrecondNames(), ", "))
		cores     = flag.Int("cores", 0, "virtual core count (0 = single rank)")
		threads   = flag.Int("threads", 0, "worker shards: max virtual ranks running concurrently (0 = GOMAXPROCS)")
		sstep     = flag.Int("sstep", 0, "s-step block size for -method sstep (0 = default 4; matvecs per global reduction)")
		machine   = flag.String("machine", "yellowstone", "machine model: yellowstone, edison, ideal, or empty")
		tol       = flag.Float64("tol", 1e-13, "relative convergence tolerance")
		tau       = flag.Float64("tau", 1920, "barotropic time step (s)")
		traceOut  = flag.String("trace", "", "write the solve's Perfetto trace (ui.perfetto.dev, poptrace) to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
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
		fmt.Printf("lanczos: %d steps, interval [%.4g, %.4g]", res.EigSteps, res.Nu, res.Mu)
		if eb := res.Trace.EigBounds; len(eb) > 0 {
			// The relative Ritz residuals the adaptive estimate stopped on.
			fmt.Printf(", ritz residuals ν %.2g μ %.2g", eb[len(eb)-1].NuRes, eb[len(eb)-1].MuRes)
		}
		fmt.Println()
	}
	if *machine != "" {
		sum := res.Stats.MeanCounters()
		fmt.Printf("virtual time/solve: %.4gs (comp %.4g, halo %.4g, reduce %.4g)\n",
			res.Stats.MaxClock, sum.TComp, sum.THalo, sum.TReduce)
		printBreakdown(&res.Stats)
	}
	fmt.Printf("per-rank averages: %d reductions, %d halo messages, %.1f KB halo traffic\n",
		res.Stats.Sum.Reductions/int64(len(res.Stats.PerRank)),
		res.Stats.Sum.HaloMsgs/int64(len(res.Stats.PerRank)),
		float64(res.Stats.Sum.HaloBytes)/float64(len(res.Stats.PerRank))/1024)

	if tracer != nil {
		tracks := tracer.Tracks(fmt.Sprintf("popsolve %s/%s/%s", g.Name, solver.Spec.Method, solver.Spec.Precond), 1)
		obs.FprintLeague(os.Stdout, obs.StragglerLeague(tracks), 10) // poptrace's default depth
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "popsolve: trace ring dropped %d events (oldest lost)\n", d)
		}
		fatalIf(obs.WriteFile(*traceOut, func(w io.Writer) error {
			return obs.WritePerfetto(w, tracks, nil, tracer.Dropped())
		}))
		fmt.Printf("trace: %s (%d rank tracks)\n", *traceOut, len(tracks))
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

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "popsolve:", err)
		os.Exit(1)
	}
}
