package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// tinyConfig builds an experiment context whose "resolutions" are small
// injected grids, so full figure pipelines run in test time.
func tinyConfig() *Config {
	// Yellowstone pricing: with noise-free reductions ChronGear wins at
	// every tiny scale (exactly the paper's small-core-count regime) and
	// the crossover shapes never appear.
	c := NewConfig(perfmodel.Yellowstone(), true, nil)
	one := grid.TestSpec()
	one.Nx, one.Ny = 64, 48
	one.Name = "tiny-1deg"
	c.grids["1deg"] = grid.Generate(one)
	tenth := grid.TestSpec()
	tenth.Nx, tenth.Ny = 90, 60
	tenth.Name = "tiny-0.1deg"
	c.grids["0.1deg"] = grid.Generate(tenth)
	return c
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a number: %v", s, err)
	}
	return v
}

func TestFig01BarotropicShareGrows(t *testing.T) {
	c := tinyConfig()
	tab, err := c.Fig01()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(tab.Rows))
	}
	first := cellFloat(t, tab.Rows[0][3])
	last := cellFloat(t, tab.Rows[len(tab.Rows)-1][3])
	if last <= first {
		t.Fatalf("barotropic share should grow with cores: %.1f%% → %.1f%%", first, last)
	}
}

func TestFig02ReductionGrowsHaloShrinks(t *testing.T) {
	c := tinyConfig()
	tab, err := c.Fig02()
	if err != nil {
		t.Fatal(err)
	}
	n := len(tab.Rows)
	redFirst, redLast := cellFloat(t, tab.Rows[0][1]), cellFloat(t, tab.Rows[n-1][1])
	haloFirst, haloLast := cellFloat(t, tab.Rows[0][2]), cellFloat(t, tab.Rows[n-1][2])
	compFirst, compLast := cellFloat(t, tab.Rows[0][3]), cellFloat(t, tab.Rows[n-1][3])
	if redLast <= redFirst {
		t.Fatalf("reduction time should grow with cores: %g → %g", redFirst, redLast)
	}
	// Halo time has a 4α lower bound (paper §2.2): on tiny grids it is
	// latency-bound from the start, so only require it not to grow much.
	if haloLast > 2*haloFirst+1e-9 {
		t.Fatalf("halo time grew with cores: %g → %g", haloFirst, haloLast)
	}
	if compLast >= compFirst {
		t.Fatalf("compute time should shrink with cores: %g → %g", compFirst, compLast)
	}
}

func TestFig06IterationShape(t *testing.T) {
	c := tinyConfig()
	tab, err := c.Fig06()
	if err != nil {
		t.Fatal(err)
	}
	iters := make(map[string]float64)
	for _, row := range tab.Rows {
		iters[row[0]] = cellFloat(t, row[1]) // 1deg column
	}
	if !(iters["chrongear+evp"] < iters["chrongear+diagonal"]) {
		t.Fatalf("EVP should cut ChronGear iterations: %v", iters)
	}
	if !(iters["pcsi+evp"] < iters["pcsi+diagonal"]) {
		t.Fatalf("EVP should cut P-CSI iterations: %v", iters)
	}
	// ≥, not >: on this tiny grid P-CSI on a converged Lanczos interval
	// lands in the same 10-iteration check window as ChronGear, and counts
	// are only observed at checks.
	if !(iters["pcsi+diagonal"] >= iters["chrongear+diagonal"]) {
		t.Fatalf("K_pcsi should be at least K_cg: %v", iters)
	}
}

func TestFig07And08Shapes(t *testing.T) {
	c := tinyConfig()
	left, right, err := c.Fig08()
	if err != nil {
		t.Fatal(err)
	}
	n := len(left.Rows)
	// At the largest core count P-CSI+EVP must beat ChronGear+diag.
	cgDiag := cellFloat(t, left.Rows[n-1][1])
	pcsiEVP := cellFloat(t, left.Rows[n-1][4])
	if pcsiEVP >= cgDiag {
		t.Fatalf("P-CSI+EVP (%g) should beat ChronGear+diag (%g) at scale", pcsiEVP, cgDiag)
	}
	// Simulation rate should be higher for P-CSI+EVP at scale.
	rCG := cellFloat(t, right.Rows[n-1][1])
	rPCSI := cellFloat(t, right.Rows[n-1][4])
	if rPCSI <= rCG {
		t.Fatalf("P-CSI+EVP rate (%g) should exceed ChronGear+diag (%g)", rPCSI, rCG)
	}
}

func TestTab01ImprovementGrowsWithCores(t *testing.T) {
	c := tinyConfig()
	tab, err := c.Tab01()
	if err != nil {
		t.Fatal(err)
	}
	n := len(tab.Rows)
	first := cellFloat(t, tab.Rows[0][3])
	last := cellFloat(t, tab.Rows[n-1][3])
	if last <= first {
		t.Fatalf("P-CSI+EVP total improvement should grow with cores: %g%% → %g%%", first, last)
	}
}

func TestFig03MoreLanczosStepsNoWorse(t *testing.T) {
	c := tinyConfig()
	tab, err := c.Fig03()
	if err != nil {
		t.Fatal(err)
	}
	// Iterations at the most Lanczos steps must not exceed those at the
	// fewest (the curve flattens to its optimum).
	first := cellFloat(t, tab.Rows[0][3])
	best := first
	for _, row := range tab.Rows {
		if v := cellFloat(t, row[3]); v < best {
			best = v
		}
	}
	lastForced := cellFloat(t, tab.Rows[len(tab.Rows)-2][3])
	if lastForced > first {
		t.Fatalf("P-CSI iterations grew with more Lanczos steps: %g → %g", first, lastForced)
	}
	if best == first && first > 50 {
		t.Logf("note: Lanczos step count made no difference (tiny grid)")
	}
}

func TestRegistryRunsAndRejectsUnknown(t *testing.T) {
	c := tinyConfig()
	var buf bytes.Buffer
	if err := Run("fig6", c, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 6") {
		t.Fatalf("fig6 output missing title: %q", buf.String())
	}
	if err := Run("nope", c, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) < 15 {
		t.Fatalf("registry too small: %v", Names())
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}, {"33", "4"}}}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "33") {
		t.Fatalf("bad table output:\n%s", out)
	}
}

func TestSweepCached(t *testing.T) {
	c := tinyConfig()
	a, err := c.Sweep("1deg")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Sweep("1deg")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("sweep not cached")
	}
}

func TestCheckFreqAblation(t *testing.T) {
	c := tinyConfig()
	tab, err := c.CheckFreq("1deg")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Checking every iteration must cost P-CSI the most reductions; its
	// per-solve time at interval 1 should exceed the interval-50 time.
	t1 := cellFloat(t, tab.Rows[0][4])
	t50 := cellFloat(t, tab.Rows[len(tab.Rows)-1][4])
	if t1 < t50 {
		t.Fatalf("P-CSI should benefit from sparser checks: interval1=%g interval50=%g", t1, t50)
	}
}

func TestSStepAblation(t *testing.T) {
	c := tinyConfig()
	tab, err := c.SStepAblation("1deg")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	reductions := map[string]float64{}
	for _, row := range tab.Rows {
		if row[3] != "true" {
			t.Fatalf("%s s=%s did not converge: %v", row[0], row[1], row)
		}
		label := row[0] + row[1]
		reductions[label] = cellFloat(t, row[4])
		if row[0] != "sstep" {
			continue
		}
		k, s := cellFloat(t, row[2]), cellFloat(t, row[1])
		if bound := math.Ceil(k/s) + 1; reductions[label] > bound {
			t.Fatalf("s=%s: %g reductions per rank for %g iterations, bound %g", row[1], reductions[label], k, bound)
		}
	}
	if reductions["sstep8"] >= reductions["chrongear-"] {
		t.Fatalf("s=8 (%g reductions) should undercut ChronGear (%g)", reductions["sstep8"], reductions["chrongear-"])
	}
}

func TestEqCheckRatiosSane(t *testing.T) {
	c := tinyConfig()
	tab, err := c.EqCheck("1deg")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio := cellFloat(t, row[5])
		if ratio < 0.2 || ratio > 30 {
			t.Fatalf("measured/analytic ratio out of sanity band: %v (%v @ %v cores)", ratio, row[0], row[1])
		}
	}
}
