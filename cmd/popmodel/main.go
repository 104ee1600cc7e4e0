// Command popmodel integrates the barotropic ocean model and prints
// periodic diagnostics (kinetic energy, SSH extrema, solver iterations).
//
//	popmodel -grid test -days 30 -solver pcsi -precond evp
//
// The model steps at the grid's own τ = 86400 / dt_count (1,920 s at 1° and
// on the test grid, 172.8 s at 0.1°), so a day is dt_count steps.
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
	"repro/internal/obs"
)

func main() {
	var (
		gridName  = flag.String("grid", "test", "grid preset: test, 1deg, 0.1deg-scaled")
		days      = flag.Float64("days", 10, "simulated days")
		solver    = flag.String("solver", "chrongear", "barotropic solver: "+strings.Join(core.MethodNames(), ", "))
		precond   = flag.String("precond", "diagonal", "preconditioner: "+strings.Join(core.PrecondNames(), ", "))
		every     = flag.Float64("report", 1, "report interval (days; at least one step)")
		threads   = flag.Int("threads", 0, "worker shards: max virtual ranks running concurrently (0 = the processors no other solve holds)")
		traceOut  = flag.String("trace", "", "write the run's Perfetto trace (ui.perfetto.dev, poptrace) to this file")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	obs.ServePprof(*pprofAddr)

	g, err := pop.NewGrid(*gridName)
	fatalIf(err)

	method, err := core.ParseMethod(*solver)
	fatalIf(err)
	pc, err := core.ParsePrecond(*precond)
	fatalIf(err)

	m, err := pop.NewModel(pop.ModelConfig{
		Grid:       g,
		Method:     method,
		SolverOpts: core.Options{Precond: pc},
		Threads:    *threads,
	})
	fatalIf(err)

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
		m.Sess.W.Tracer = tracer
	}

	// A report interval shorter than one step reports every step.
	stepsPerReport := max(int(*every*float64(g.DtCount)), 1)
	totalSteps := int(*days * float64(g.DtCount))
	// The pair the model runs (core.Canonical: csi is pcsi+none), not the flags.
	fmt.Printf("grid %s (%d×%d), dt=%gs, %d steps, solver %s+%s\n",
		g.Name, g.Nx, g.Ny, g.Tau(), totalSteps, m.Cfg.Method, m.Cfg.SolverOpts.Precond)

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
			float64(done)/float64(g.DtCount), m.KineticEnergy(), etaMin, etaMax, m.MeanSSH(), iters)
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
		tracks := tracer.Tracks(fmt.Sprintf("popmodel %s/%s/%s", g.Name, m.Cfg.Method, m.Cfg.SolverOpts.Precond), 1)
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
