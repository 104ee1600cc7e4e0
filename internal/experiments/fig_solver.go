package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/stencil"
)

// Fig03 is Figure 3: the effect of the number of Lanczos steps on the
// number of P-CSI iterations (1° grid, diagonal preconditioner). Few steps
// give poor extreme-eigenvalue estimates and slow Chebyshev convergence;
// past a handful of steps the iteration count flattens at its optimum —
// which is why the ε = 0.15 stopping tolerance is enough.
func (c *Config) Fig03() (*Table, error) {
	g := c.gridFor("1deg")
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(c.tauFor("1deg")))
	b := syntheticRHS(g, op)
	bx, by, _, err := decomp.ChooseBlocking(g, c.CoreTargets("1deg")[2], 3, 2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 3: Lanczos steps vs P-CSI iterations, 1deg, diagonal",
		Header: []string{"lanczos_steps", "nu", "mu", "pcsi_iterations", "converged"},
	}
	run := func(steps int) (core.Result, float64, float64, int, error) {
		d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
		if err != nil {
			return core.Result{}, 0, 0, 0, err
		}
		d.AssignOnePerRank()
		w, err := comm.NewWorld(d, c.Machine)
		if err != nil {
			return core.Result{}, 0, 0, 0, err
		}
		sess, err := core.NewSession(g, op, d, w, core.Options{Precond: core.PrecondDiagonal})
		if err != nil {
			return core.Result{}, 0, 0, 0, err
		}
		nu, mu, got, err := sess.EstimateEigenvalues(nil, steps)
		if err != nil {
			return core.Result{}, 0, 0, 0, err
		}
		res, _, err := sess.Solve(core.MethodPCSI, b, nil)
		return res, nu, mu, got, err
	}
	for _, steps := range []int{2, 3, 4, 6, 8, 12, 20, 30} {
		res, nu, mu, got, err := run(steps)
		if err != nil {
			return nil, fmt.Errorf("fig3 steps=%d: %w", steps, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(got), fmt.Sprintf("%.4g", nu), fmt.Sprintf("%.4g", mu),
			fmt.Sprint(res.Iterations), fmt.Sprint(res.Converged),
		})
		c.logf("fig3 steps=%d iters=%d", got, res.Iterations)
	}
	// The adaptive (ε = 0.15) choice for reference.
	res, nu, mu, got, err := run(0)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("%d(eps=0.15)", got), fmt.Sprintf("%.4g", nu), fmt.Sprintf("%.4g", mu),
		fmt.Sprint(res.Iterations), fmt.Sprint(res.Converged),
	})
	return t, nil
}

// Fig06 is Figure 6: average solver iteration counts for the four
// solver/preconditioner configurations at 1° and 0.1°. The expected shape:
// block-EVP cuts iterations to roughly a third for both solvers at both
// resolutions, P-CSI needs more iterations than ChronGear, and the 0.1°
// grid (being closer to isotropic) needs fewer iterations than 1°.
func (c *Config) Fig06() (*Table, error) {
	t := &Table{
		Title:  "Fig 6: average iterations per solve",
		Header: []string{"config", "1deg", "0.1deg"},
	}
	configs := append([]SolverConfig{{"pcg", core.PrecondDiagonal}}, PaperConfigs...)
	cols := make(map[SolverConfig][2]int)
	for resIdx, res := range []string{"1deg", "0.1deg"} {
		target := c.CoreTargets(res)[1]
		// The four paper configurations come from the (cached) sweep; only
		// the PCG baseline needs a dedicated measurement.
		ms, err := c.Sweep(res)
		if err != nil {
			return nil, err
		}
		for _, sc := range PaperConfigs {
			v := cols[sc]
			v[resIdx] = find(ms, sc, target).Iterations
			cols[sc] = v
		}
		g := c.gridFor(res)
		op := stencil.Assemble(g, stencil.PhiFromTimeStep(c.tauFor(res)))
		b := syntheticRHS(g, op)
		m, err := c.measure(res, g, op, b, target, SolverConfig{"pcg", core.PrecondDiagonal})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s pcg: %w", res, err)
		}
		v := cols[SolverConfig{"pcg", core.PrecondDiagonal}]
		v[resIdx] = m.Iterations
		cols[SolverConfig{"pcg", core.PrecondDiagonal}] = v
	}
	for _, sc := range configs {
		v := cols[sc]
		t.Rows = append(t.Rows, []string{sc.String(), fmt.Sprint(v[0]), fmt.Sprint(v[1])})
	}
	return t, nil
}

// EVPSetupCost quantifies §4.3's claim that EVP preprocessing costs less
// than one solver call (an extra supporting table, not a numbered figure).
func (c *Config) EVPSetupCost(res string, target int) (*Table, error) {
	g := c.gridFor(res)
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(c.tauFor(res)))
	b := syntheticRHS(g, op)
	m, err := c.measure(res, g, op, b, target, SolverConfig{"pcsi", core.PrecondEVP})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("EVP setup cost vs one solve, %s @ %d cores", res, m.Cores),
		Header: []string{"evp_setup_s", "lanczos_s", "one_solve_s", "setup/solve"},
		Rows: [][]string{{
			fmt.Sprintf("%.4g", m.SetupTime),
			fmt.Sprintf("%.4g", m.EigTime),
			fmt.Sprintf("%.4g", m.SolveTime),
			fmt.Sprintf("%.2f", m.SetupTime/m.SolveTime),
		}},
	}
	return t, nil
}
