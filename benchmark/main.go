// Command benchmark is the repo's fixed yardstick (see BENCHMARK.json and
// benchmark/README.md): four named workloads, each run in a process of its
// own, with every answer checked against a manufactured solution.
//
//	go run ./benchmark -workload cg_diag_1deg_r768 -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload all -seed 1 -out benchmark/out/a.jsonl
//	go run ./benchmark -compare benchmark/out/a.jsonl benchmark/out/b.jsonl
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file: a report plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Seconds  int    `json:"seconds"`
	report
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "seconds one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		out     = flag.String("out", "", "append each run's record to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two -out files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1")
	}
	if name == "all" {
		return runAll(seed, seconds, trace, out)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w.clients = min(w.clients, runtime.NumCPU())
	spec, err := readSpec()
	if err != nil {
		return err
	}
	fmt.Println(hostHeader())
	var rep report
	if trace == 1 {
		rep, err = runTraced(w, seed, seconds)
	} else {
		rep, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return err
	}
	printMetrics(rep.Metrics)
	if err := checkAgainstSpec(spec, rep.Metrics, trace == 1); err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, record{Workload: w.name, Seed: seed, Trace: trace, Seconds: seconds, report: rep}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in a process of its own, so one workload's
// heap, caches and peak memory never reach another's numbers, and prints
// each one's wall time against the run budget.
func runAll(seed int64, seconds, trace int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		fmt.Printf("== %s wall %.1f s\n", w.name, time.Since(start).Seconds())
	}
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
