package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/stats"
)

// Ensemble-experiment scale. The paper runs 1° CESM for 12–36 months; this
// substrate runs a reduced basin with a scaled "month" so 40-member
// ensembles finish on one machine. Shapes to reproduce: RMSE magnitudes far
// below climate signals regardless of tolerance (Fig. 12's null result),
// and RMSZ separating loose tolerances from the ensemble envelope by orders
// of magnitude while tight tolerances stay inside (Fig. 13).
const (
	ensNx, ensNy  = 96, 72
	ensMonthSteps = 240 // one scaled "month" of the test grid's 1,920 s steps
	ensSpinup     = 600
	ensMembers    = 40
	ensMonths     = 12
)

// ensScale returns the (possibly quick-mode) ensemble dimensions.
func (c *Config) ensScale() (nx, ny, monthSteps, spinup, members, months int) {
	if c.Quick {
		return 48, 36, 100, 200, 10, 4
	}
	return ensNx, ensNy, ensMonthSteps, ensSpinup, ensMembers, ensMonths
}

// ensBase builds and spins up the shared base state all runs fork from.
func (c *Config) ensBase() (*model.Model, error) {
	nx, ny, _, spinup, _, _ := c.ensScale()
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = nx, ny
	spec.Name = fmt.Sprintf("ens-%dx%d", nx, ny)
	cfg := model.Config{
		Grid:       grid.Generate(spec),
		Method:     core.MethodChronGear,
		SolverOpts: core.Options{Precond: core.PrecondDiagonal, Tol: 1e-13},
	}
	m, err := model.New(cfg)
	if err != nil {
		return nil, err
	}
	c.logf("ensemble: spinning up %d steps on %dx%d", spinup, nx, ny)
	if err := m.Run(spinup); err != nil {
		return nil, err
	}
	return m, nil
}

// flattenTemp concatenates all temperature layers (the paper evaluates the
// 3-D temperature field).
func flattenTemp(m *model.Model) []float64 {
	out := make([]float64, 0, len(m.Temp)*len(m.Temp[0]))
	for _, layer := range m.Temp {
		out = append(out, layer...)
	}
	return out
}

// temp3DMask repeats the ocean mask across layers.
func temp3DMask(m *model.Model) []bool {
	out := make([]bool, 0, len(m.Temp)*len(m.Temp[0]))
	for range m.Temp {
		out = append(out, m.G.Mask...)
	}
	return out
}

// runMonthly forks base into a model with the given solver options, runs
// `months` scaled months, and returns the monthly 3-D temperature fields.
func (c *Config) runMonthly(base *model.Model, method core.Method, opts core.Options,
	perturb float64, seed int64, months, monthSteps int) ([][]float64, error) {
	m, err := base.Fork(method, opts)
	if err != nil {
		return nil, err
	}
	if perturb != 0 {
		m.PerturbTemperature(perturb, seed)
	}
	out := make([][]float64, months)
	for mo := 0; mo < months; mo++ {
		if err := m.Run(monthSteps); err != nil {
			return nil, err
		}
		out[mo] = flattenTemp(m)
	}
	return out, nil
}

// Fig12Tolerances is the paper's solver convergence-tolerance sweep.
var Fig12Tolerances = []float64{1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15}

// Fig12 is Figure 12: monthly temperature RMSE of runs with varying solver
// tolerance against the strictest-tolerance (1e-16) run. The paper's point:
// RMSE magnitudes are so far below any climate signal that the test cannot
// order tolerances usefully. (Shape note, recorded in EXPERIMENTS.md: this
// substrate's circulation is laminar at laptop resolution, so its RMSE
// stays tolerance-ordered instead of being scrambled by chaos — but the
// magnitudes, the paper's actual argument, reproduce.)
func (c *Config) Fig12() (*Table, error) {
	base, err := c.ensBase()
	if err != nil {
		return nil, err
	}
	_, _, monthSteps, _, _, months := c.ensScale()
	ref, err := c.runMonthly(base, core.MethodChronGear,
		core.Options{Precond: core.PrecondDiagonal, Tol: 1e-16}, 0, 0, months, monthSteps)
	if err != nil {
		return nil, err
	}
	mask := temp3DMask(base)
	t := &Table{Title: "Fig 12: monthly temperature RMSE vs tol=1e-16 run (K)"}
	t.Header = []string{"month"}
	for _, tol := range Fig12Tolerances {
		t.Header = append(t.Header, fmt.Sprintf("tol=%.0e", tol))
	}
	cases := make([][][]float64, len(Fig12Tolerances))
	for i, tol := range Fig12Tolerances {
		c.logf("fig12: tolerance %.0e", tol)
		cases[i], err = c.runMonthly(base, core.MethodChronGear,
			core.Options{Precond: core.PrecondDiagonal, Tol: tol}, 0, 0, months, monthSteps)
		if err != nil {
			return nil, err
		}
	}
	for mo := 0; mo < months; mo++ {
		row := []string{fmt.Sprint(mo + 1)}
		for i := range Fig12Tolerances {
			row = append(row, fmt.Sprintf("%.3e", stats.RMSE(cases[i][mo], ref[mo], mask)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13Case is one "new case" evaluated against the ensemble.
type Fig13Case struct {
	Name   string
	Solver core.Method
	Opts   core.Options
}

// Fig13Cases are the evaluated configurations: the paper's loose/strict
// tolerances plus the new P-CSI+EVP solver whose acceptance the method
// gates.
var Fig13Cases = []Fig13Case{
	{"cg tol=1e-10", core.MethodChronGear, core.Options{Precond: core.PrecondDiagonal, Tol: 1e-10}},
	{"cg tol=1e-11", core.MethodChronGear, core.Options{Precond: core.PrecondDiagonal, Tol: 1e-11}},
	{"cg tol=1e-13", core.MethodChronGear, core.Options{Precond: core.PrecondDiagonal, Tol: 1e-13}},
	{"cg tol=1e-15", core.MethodChronGear, core.Options{Precond: core.PrecondDiagonal, Tol: 1e-15}},
	{"pcsi+evp 1e-13", core.MethodPCSI, core.Options{Precond: core.PrecondEVP, Tol: 1e-13}},
}

// Fig13 is Figure 13: the monthly RMSZ of each case against a 40-member
// ensemble of O(1e−14)-perturbed default-solver runs, with the ensemble's
// own member envelope (the paper's yellow band). Expected: the 1e-10/1e-11
// cases sit orders of magnitude above the envelope; the default, stricter,
// and P-CSI+EVP cases sit at the envelope — the consistency evidence that
// allowed P-CSI into the POP release.
func (c *Config) Fig13() (*Table, error) {
	base, err := c.ensBase()
	if err != nil {
		return nil, err
	}
	_, _, monthSteps, _, members, months := c.ensScale()
	mask := temp3DMask(base)
	defaultOpts := core.Options{Precond: core.PrecondDiagonal, Tol: 1e-13}

	// Ensemble members: identical solver, perturbed initial temperature.
	memberMonths := make([][][]float64, members) // [member][month][]
	for mem := 0; mem < members; mem++ {
		c.logf("fig13: member %d/%d", mem+1, members)
		memberMonths[mem], err = c.runMonthly(base, core.MethodChronGear, defaultOpts,
			1e-14, int64(mem+1), months, monthSteps)
		if err != nil {
			return nil, err
		}
	}
	// Cases.
	caseMonths := make([][][]float64, len(Fig13Cases))
	for ci, fc := range Fig13Cases {
		c.logf("fig13: case %s", fc.Name)
		caseMonths[ci], err = c.runMonthly(base, fc.Solver, fc.Opts, 0, 0, months, monthSteps)
		if err != nil {
			return nil, err
		}
	}

	t := &Table{Title: fmt.Sprintf("Fig 13: monthly temperature RMSZ vs %d-member ensemble", members)}
	t.Header = []string{"month", "envelope_lo", "envelope_hi"}
	for _, fc := range Fig13Cases {
		t.Header = append(t.Header, fc.Name)
	}
	for mo := 0; mo < months; mo++ {
		ens := stats.NewEnsemble(len(mask), mask)
		monthFields := make([][]float64, members)
		for mem := 0; mem < members; mem++ {
			monthFields[mem] = memberMonths[mem][mo]
			ens.Add(memberMonths[mem][mo])
		}
		lo, hi, err := stats.MemberEnvelope(monthFields, mask)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(mo + 1), fmt.Sprintf("%.2f", lo), fmt.Sprintf("%.2f", hi)}
		for ci := range Fig13Cases {
			z, err := ens.RMSZ(caseMonths[ci][mo])
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.3g", z))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
