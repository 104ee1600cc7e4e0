// Command popmodel integrates the barotropic ocean model and prints
// periodic diagnostics (kinetic energy, SSH extrema, solver iterations).
//
//	popmodel -grid test -days 30 -solver pcsi -precond evp
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
)

func main() {
	var (
		gridName   = flag.String("grid", "test", "grid preset: test, 1deg, 0.1deg-scaled")
		days       = flag.Float64("days", 10, "simulated days")
		dt         = flag.Float64("dt", 2400, "time step (s)")
		solver     = flag.String("solver", "chrongear", "barotropic solver: chrongear, pcg, pipecg, pcsi, csi, sstep")
		precond    = flag.String("precond", "diagonal", "preconditioner: diagonal, evp, none, blocklu")
		sstep      = flag.Int("sstep", 0, "s-step block size for -solver sstep (0 = default 4)")
		every      = flag.Float64("report", 1, "report interval (days)")
		threads    = flag.Int("threads", 0, "worker shards: max virtual ranks running concurrently (0 = GOMAXPROCS)")
		traceOut   = flag.String("trace", "", "write JSONL span/event trace to this file")
		metricsOut = flag.String("metrics", "", "write Prometheus-style metrics to this file")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
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

	if tracer != nil {
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "popmodel: trace ring dropped %d events (oldest lost)\n", d)
		}
		fatalIf(obs.DumpTrace(tracer, *traceOut))
		fmt.Printf("trace: %s\n", *traceOut)
	}
	if *metricsOut != "" {
		reg := obs.NewRegistry()
		reg.Counter("popmodel_steps_total", "model time steps integrated").Add(int64(totalSteps))
		var iterSum int64
		for _, it := range m.IterHistory {
			iterSum += int64(it)
		}
		reg.Counter("popmodel_solver_iterations_total", "barotropic solver iterations across steps").Add(iterSum)
		reg.Gauge("popmodel_kinetic_energy", "final kinetic energy").Set(m.KineticEnergy())
		reg.Gauge("popmodel_mean_ssh_meters", "final mean sea-surface height").Set(m.MeanSSH())
		if tracer != nil {
			reg.Counter("popmodel_trace_dropped_events_total",
				"events lost to trace ring wraparound").Add(tracer.Dropped())
		}
		fatalIf(obs.DumpMetrics(reg, *metricsOut))
		fmt.Printf("metrics: %s\n", *metricsOut)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "popmodel:", err)
		os.Exit(1)
	}
}
