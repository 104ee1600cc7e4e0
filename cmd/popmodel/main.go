// Command popmodel integrates the barotropic ocean model and prints
// periodic diagnostics (kinetic energy, SSH extrema, solver iterations).
//
//	popmodel -grid test -days 30 -solver pcsi -precond evp
//
// -trace writes every step's per-rank solver events as one Perfetto file
// (ui.perfetto.dev, poptrace), a run_begin marker opening each solve.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

func main() {
	var (
		gridName  = flag.String("grid", "test", "grid preset: test, 1deg, 0.1deg-scaled")
		days      = flag.Float64("days", 10, "simulated days")
		dt        = flag.Float64("dt", 2400, "time step (s)")
		solver    = flag.String("solver", "chrongear", "barotropic solver: "+strings.Join(core.MethodNames(), ", "))
		precond   = flag.String("precond", "diagonal", "preconditioner: "+strings.Join(core.PrecondNames(), ", "))
		sstep     = flag.Int("sstep", 0, "s-step block size for -solver sstep (0 = default 4)")
		every     = flag.Float64("report", 1, "report interval (days)")
		threads   = flag.Int("threads", 0, "worker shards: max virtual ranks running concurrently (0 = GOMAXPROCS)")
		traceOut  = flag.String("trace", "", "write the run's Perfetto trace (ui.perfetto.dev, poptrace) to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	obs.ServePprof(*pprofAddr)

	g, err := pop.NewGrid(*gridName)
	fatalIf(err)

	pc, err := core.ParsePrecond(*precond)
	fatalIf(err)

	m, err := pop.NewModel(pop.ModelConfig{
		Grid:       g,
		Dt:         *dt,
		Solver:     model.SolverName(*solver),
		SolverOpts: core.Options{Precond: pc, SStep: *sstep},
		Threads:    *threads,
	})
	fatalIf(err)

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
		m.Sess.W.Tracer = tracer
	}

	stepsPerReport := int(*every * 86400 / *dt)
	totalSteps := int(*days * 86400 / *dt)
	fmt.Printf("grid %s (%d×%d), dt=%.0fs, %d steps, solver %s+%s\n",
		g.Name, g.Nx, g.Ny, *dt, totalSteps, *solver, *precond)

	for done := 0; done < totalSteps; {
		n := stepsPerReport
		if done+n > totalSteps {
			n = totalSteps - done
		}
		fatalIf(m.Run(n))
		done += n
		var etaMin, etaMax float64
		for k, ocean := range g.Mask {
			if ocean {
				etaMin = math.Min(etaMin, m.Eta[k])
				etaMax = math.Max(etaMax, m.Eta[k])
			}
		}
		iters := m.IterHistory[len(m.IterHistory)-1]
		fmt.Printf("day %6.2f  KE=%.4e  ssh=[%+.3f,%+.3f] m  mean_ssh=%+.2e  iters=%d\n",
			float64(done)**dt/86400, m.KineticEnergy(), etaMin, etaMax, m.MeanSSH(), iters)
	}

	var iterSum int
	for _, it := range m.IterHistory {
		iterSum += it
	}
	fmt.Printf("solver iterations: %d over %d steps\n", iterSum, totalSteps)

	if tracer != nil {
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "popmodel: trace ring dropped %d events (oldest lost)\n", d)
		}
		tracks := tracer.Tracks(fmt.Sprintf("popmodel %s/%s/%s", g.Name, *solver, *precond), 1)
		fatalIf(obs.WriteFile(*traceOut, func(w io.Writer) error {
			return obs.WritePerfetto(w, tracks, nil, tracer.Dropped())
		}))
		fmt.Printf("trace: %s\n", *traceOut)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "popmodel:", err)
		os.Exit(1)
	}
}
