// Command popbench regenerates the paper's tables, figures and ablations.
//
// Usage:
//
//	popbench -exp fig8 -machine yellowstone        # one experiment, full scale
//	popbench -exp sstep                            # s-step reduction saving at 1°, 676 ranks
//	popbench -exp all -quick                       # everything, reduced scale
//	popbench -list                                 # available experiment ids
//
// Full-scale 0.1° sweeps execute millions of real solver iterations across
// up to ~17k virtual ranks and take tens of minutes on one machine; -quick
// runs the same code paths on reduced grids in a few minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

func main() {
	var (
		exp       = flag.String("exp", "", "comma-separated experiment ids (see -list), or 'all'")
		machine   = flag.String("machine", "yellowstone", "machine model: yellowstone, edison, ideal")
		quick     = flag.Bool("quick", false, "reduced-scale grids and core counts")
		verbose   = flag.Bool("v", true, "progress logging")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		targets   = flag.String("targets", "", "comma-separated 0.1deg core-count targets overriding the paper axis")
		reportDir = flag.String("reportdir", "", "write per-experiment BENCH_<exp>.json run reports here")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()
	obs.ServePprof(*pprofAddr)

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	var m *perfmodel.Machine
	switch *machine {
	case "yellowstone":
		m = perfmodel.Yellowstone()
	case "edison":
		m = perfmodel.Edison()
	case "ideal":
		m = perfmodel.Ideal()
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
		os.Exit(2)
	}

	cfg := experiments.NewConfig(m, *quick, os.Stderr)
	cfg.Verbose = *verbose
	if *targets != "" {
		var ts []int
		for _, part := range strings.Split(*targets, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -targets entry %q\n", part)
				os.Exit(2)
			}
			ts = append(ts, v)
		}
		cfg.TargetOverride = map[string][]int{"0.1deg": ts}
	}

	failed := false
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.Names()
	}
	for _, id := range ids {
		start := time.Now()
		before := len(cfg.Recorded())
		if err := experiments.Run(id, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			failed = true
			continue
		}
		wall := time.Since(start)
		fmt.Fprintf(os.Stderr, "# %s done in %s\n", id, wall.Round(time.Second))
		if *reportDir != "" {
			if err := writeReport(cfg, id, wall.Seconds(), cfg.Recorded()[before:], *reportDir); err != nil {
				fmt.Fprintf(os.Stderr, "report %s: %v\n", id, err)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeReport saves the experiment's machine-readable run report as
// BENCH_<id>.json. Measurements are the slice this experiment added to
// Config.Recorded(); an experiment replaying a cached sweep adds none.
func writeReport(cfg *experiments.Config, id string, wallSeconds float64,
	ms []experiments.Measurement, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rep := experiments.NewBenchReport(cfg, id, wallSeconds, ms)
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# wrote %s (%d measurements)\n", path, len(ms))
	return nil
}
