// Package experiments regenerates every table and figure in the paper's
// evaluation (§2 Fig. 1–2, §3 Fig. 3, §4 Fig. 6, §5 Fig. 7–11 + Table 1,
// §6 Fig. 12–13). Each driver runs the real distributed solvers on the
// synthetic grids, prices the measured event stream with a machine model,
// and prints the same rows/series the paper plots. Expensive sweeps are
// computed once per (machine, resolution) and shared across figures —
// Fig. 1, 2, 8, 9 and 10 are all views of one 0.1° sweep, as in the paper.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

// SolverConfig names one solver/preconditioner combination.
type SolverConfig struct {
	Solver  core.Method // ChronGear, PCG or P-CSI
	Precond core.PrecondType
}

func (sc SolverConfig) String() string {
	return sc.Solver.String() + "+" + sc.Precond.String()
}

// PaperConfigs are the four combinations of Figures 7, 8, 10 and 11.
var PaperConfigs = []SolverConfig{
	{core.MethodChronGear, core.PrecondDiagonal},
	{core.MethodChronGear, core.PrecondEVP},
	{core.MethodPCSI, core.PrecondDiagonal},
	{core.MethodPCSI, core.PrecondEVP},
}

// Config carries shared experiment state; create with NewConfig.
type Config struct {
	Machine *perfmodel.Machine
	// Quick shrinks grids (1°→160×192, 0.1°→900×600) and divides core-
	// count targets (by 4 and 16), for fast previews and `go test -short`.
	Quick bool
	// Solves per measurement (averaged); default 1 (the solve is
	// deterministic; averaging only matters for noisy machines).
	Solves int
	// Verbose writes progress lines to Out as long runs proceed.
	Verbose bool
	Out     io.Writer

	// TargetOverride, when non-nil for a resolution key, replaces the
	// paper's core-count axis (used to trim very long full-scale runs).
	TargetOverride map[string][]int

	grids  map[string]*grid.Grid
	sweeps map[string][]Measurement
	baro   map[string]baroPoint

	recorded []Measurement // every measureOn result, in completion order
}

// NewConfig prepares an experiment context on the given machine model.
func NewConfig(m *perfmodel.Machine, quick bool, out io.Writer) *Config {
	if m == nil {
		m = perfmodel.Yellowstone()
	}
	if out == nil {
		out = io.Discard
	}
	return &Config{
		Machine: m,
		Quick:   quick,
		Solves:  1,
		Out:     out,
		grids:   make(map[string]*grid.Grid),
		sweeps:  make(map[string][]Measurement),
		baro:    make(map[string]baroPoint),
	}
}

// logf writes progress when Verbose is set.
func (c *Config) logf(format string, args ...any) {
	if c.Verbose {
		fmt.Fprintf(c.Out, "# "+format+"\n", args...)
	}
}

// Grid1 returns (generating once) the 1° grid.
func (c *Config) Grid1() *grid.Grid {
	return c.gridFor("1deg")
}

// Grid01 returns (generating once) the 0.1° grid.
func (c *Config) Grid01() *grid.Grid {
	return c.gridFor("0.1deg")
}

func (c *Config) gridFor(name string) *grid.Grid {
	if g, ok := c.grids[name]; ok {
		return g
	}
	var spec grid.Spec
	switch {
	case name == "1deg" && !c.Quick:
		spec = grid.OneDegreeSpec()
	case name == "1deg" && c.Quick:
		spec = grid.OneDegreeSpec()
		spec.Nx, spec.Ny = 160, 192
		spec.Name = "gx1-synthetic-quick"
	case name == "0.1deg" && !c.Quick:
		spec = grid.TenthDegreeSpec()
	default:
		spec = grid.QuarterScaleTenthSpec()
	}
	c.logf("generating %s grid (%d×%d)", spec.Name, spec.Nx, spec.Ny)
	g := grid.Generate(spec)
	c.grids[name] = g
	return g
}

// CoreTargets returns the paper's core-count axis for a resolution.
func (c *Config) CoreTargets(res string) []int {
	if o, ok := c.TargetOverride[res]; ok && len(o) > 0 {
		return o
	}
	var t []int
	if res == "1deg" {
		t = []int{24, 48, 96, 192, 384, 768}
	} else {
		t = []int{470, 1200, 2700, 5400, 10800, 16875}
	}
	if c.Quick {
		div := 4
		if res != "1deg" {
			div = 16
		}
		out := make([]int, len(t))
		for i, v := range t {
			out[i] = max(1, v/div)
		}
		return out
	}
	return t
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// Recorded returns every measurement taken so far (sweeps and single
// points alike), in completion order. Callers snapshot len(Recorded())
// before an experiment and slice after it to attribute measurements —
// note that cached sweeps record nothing on reuse, so a figure that
// shares an earlier sweep contributes no new entries.
func (c *Config) Recorded() []Measurement {
	return c.recorded
}

// OverrideGrid substitutes the grid used for a resolution key ("1deg" or
// "0.1deg") — used by benchmarks to run every figure pipeline at bench-
// friendly sizes.
func (c *Config) OverrideGrid(res string, g *grid.Grid) {
	c.grids[res] = g
}
