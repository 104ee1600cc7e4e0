package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// boundedMetric is one end_to_end or per_layer entry of BENCHMARK.json
// (per-layer metrics have no bound).
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// verdict compares the runs b of a change with the runs a of its parent on
// one metric. The medians decide, against the metric's bound; when either
// side's own run-to-run spread is wider than the bound the difference
// cannot be told from noise and the verdict is unresolved — unless every
// run of b reads better than every run of a.
func verdict(a, b []float64, m boundedMetric) (v string, change, spread float64) {
	ma, mb := median(a), median(b)
	// change > 0 means b is worse, as a share of a's median.
	change = (mb - ma) / ma
	if m.Better == "higher" {
		change = -change
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	if spread > m.Bound {
		if allBetter(a, b, m.Better == "higher") {
			return verdictBetter, change, spread
		}
		return verdictUnresolved, change, spread
	}
	switch {
	case change > m.Bound:
		return verdictWorse, change, spread
	case change < -m.Bound:
		return verdictBetter, change, spread
	}
	return verdictSame, change, spread
}

// allBetter reports whether every value of b is strictly better than every
// value of a.
func allBetter(a, b []float64, higher bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// readRecords loads the records of an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// benchmarkSpec is the part of BENCHMARK.json the program itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

// readSpec loads the BENCHMARK.json in the current directory, the root of
// the checkout the benchmark is run from.
func readSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// checkAgainstSpec fails when the metrics a run produced are not exactly
// the ones BENCHMARK.json declares for that kind of run, name and unit: the
// file is the contract, and a metric renamed in the code alone would
// silently drop out of every later comparison.
func checkAgainstSpec(spec benchmarkSpec, ms map[string]metric, traced bool) error {
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	if len(declared) != len(ms) {
		return fmt.Errorf("run produced %d metrics, BENCHMARK.json declares %d", len(ms), len(declared))
	}
	for _, d := range declared {
		m, ok := ms[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, the run did not produce it", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("%s has unit %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
		}
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric comparing
// the runs in file b (the change) with those in file a (the parent), and
// fails when any row is worse or b failed more operations than a.
func compareFiles(pathA, pathB string, out io.Writer) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return err
	}
	worse, err := compareRecords(ra, rb, spec.EndToEnd, out)
	if err != nil {
		return err
	}
	unsteady := compareExact(ra, rb, out)
	if worse > 0 || unsteady > 0 {
		return fmt.Errorf("%d comparisons are worse, %d exact counts do not repeat", worse, unsteady)
	}
	return nil
}

// compareExact checks the exact counts of the traced runs in both files:
// within one file, runs of one workload and seed must agree bit for bit
// (each disagreement is counted); between the files a difference is what a
// change to the algorithm looks like, and is printed, not judged.
func compareExact(ra, rb []record, out io.Writer) (unsteady int) {
	type runKey struct {
		workload string
		seed     int64
		name     string
	}
	collect := func(recs []record, label string) map[runKey]float64 {
		seen := make(map[runKey]float64)
		for _, r := range recs {
			if r.Trace != 1 {
				continue
			}
			for _, name := range exactCounts {
				m, ok := r.Metrics[name]
				if !ok {
					continue
				}
				k := runKey{r.Workload, r.Seed, name}
				if prev, dup := seen[k]; dup && prev != m.Value {
					unsteady++
					fmt.Fprintf(out, "exact count %s on %s seed %d does not repeat in %s: %v then %v\n",
						name, r.Workload, r.Seed, label, prev, m.Value)
				}
				seen[k] = m.Value
			}
		}
		return seen
	}
	a, b := collect(ra, "a"), collect(rb, "b")
	for _, r := range ra {
		for _, name := range exactCounts {
			k := runKey{r.Workload, r.Seed, name}
			va, inA := a[k]
			vb, inB := b[k]
			if inA && inB && va != vb {
				fmt.Fprintf(out, "exact count %s on %s seed %d changed: %v -> %v\n", name, r.Workload, r.Seed, va, vb)
				delete(a, k) // once per run key
			}
		}
	}
	return unsteady
}

func compareRecords(ra, rb []record, bounds []boundedMetric, out io.Writer) (worse int, err error) {
	values := func(recs []record, workload, name string) (vs []float64, failed int) {
		for _, r := range recs {
			if r.Workload != workload || r.Trace != 0 {
				continue
			}
			failed += r.Failed
			if m, ok := r.Metrics[name]; ok {
				vs = append(vs, m.Value)
			}
		}
		return vs, failed
	}
	fmt.Fprintf(out, "%-20s %-14s %5s %12s %12s %8s %6s %7s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "change", "bound", "spread", "verdict")
	for _, w := range workloads {
		for _, m := range bounds {
			a, failedA := values(ra, w.name, m.Name)
			b, failedB := values(rb, w.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				return worse, fmt.Errorf("no runs of %s with %s on both sides", w.name, m.Name)
			}
			v, change, spread := verdict(a, b, m)
			if failedB > failedA {
				v = verdictWorse
			}
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(out, "%-20s %-14s %5s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s (n=%d,%d; failed %d,%d)\n",
				w.name, m.Name, m.Unit, median(a), median(b), 100*change, 100*m.Bound, 100*spread,
				v, len(a), len(b), failedA, failedB)
		}
	}
	return worse, nil
}
