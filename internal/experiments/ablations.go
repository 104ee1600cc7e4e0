package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// CheckFreq is the §5.2 side-note made measurable: "because P-CSI
// iterations are relatively inexpensive (compared to performing the POP
// convergence check), P-CSI performance may improve if the check for
// convergence occurs less frequently." Sweep the check interval for both
// solvers at a large core count and report iterations and per-solve time.
// ChronGear is indifferent (its check rides the reduction it must do
// anyway); P-CSI trades a few overshoot iterations for fewer reductions.
func (c *Config) CheckFreq(res string) (*Table, error) {
	g := c.gridFor(res)
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(c.tauFor(res)))
	b := syntheticRHS(g, op)
	targets := c.CoreTargets(res)
	target := targets[len(targets)-1]
	bx, by, cores, err := decomp.ChooseBlocking(g, target, 3, 2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Ablation: convergence-check interval, %s @ %d cores, %s",
			res, cores, c.Machine.Name),
		Header: []string{"check_every", "cg_iters", "cg_s/solve", "pcsi_iters", "pcsi_s/solve"},
	}
	for _, every := range []int{1, 5, 10, 20, 50} {
		row := []string{fmt.Sprint(every)}
		for _, method := range []core.Method{core.MethodChronGear, core.MethodPCSI} {
			d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
			if err != nil {
				return nil, err
			}
			d.AssignOnePerRank()
			w, err := comm.NewWorld(d, c.Machine)
			if err != nil {
				return nil, err
			}
			sess, err := core.NewSession(g, op, d, w, core.Options{
				Precond: core.PrecondEVP, CheckEvery: every})
			if err != nil {
				return nil, err
			}
			res2, _, err := sess.Solve(method, b, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(res2.Iterations), fmt.Sprintf("%.4g", res2.Stats.MaxClock))
		}
		t.Rows = append(t.Rows, row)
		c.logf("checkfreq %d done", every)
	}
	return t, nil
}

// EqCheck cross-validates the priced measurements against the paper's
// closed-form per-solve models (Equations 2, 3, 5 and 6): for each
// configuration at each core count, report measured virtual time per solve
// next to K·T_iter from the equation with the *measured* K. The analytic
// forms ignore convergence checks, Lanczos setup, load imbalance, and
// contention noise, so ratios near 1 (typically 0.5–2) validate the
// pricing; systematic drift would flag a bug in either.
func (c *Config) EqCheck(res string) (*Table, error) {
	ms, err := c.Sweep(res)
	if err != nil {
		return nil, err
	}
	// Compare under the noise-free machine so the closed forms' missing
	// noise terms don't dominate: re-price deterministic parts only.
	ideal := perfmodel.Ideal()
	n2 := float64(c.gridFor(res).Nx) * float64(c.gridFor(res).Ny)
	t := &Table{
		Title:  fmt.Sprintf("Ablation: measured vs Eq.2/3/5/6 per-solve time, %s", res),
		Header: []string{"config", "cores", "K", "measured_s", "eq_s", "ratio"},
	}
	for _, m := range ms {
		var eq float64
		switch {
		case m.Config.Solver == "chrongear" && m.Config.Precond == core.PrecondDiagonal:
			eq = perfmodel.EqChronGearDiag(ideal, n2, m.Cores, float64(m.Iterations))
		case m.Config.Solver == "chrongear" && m.Config.Precond == core.PrecondEVP:
			eq = perfmodel.EqChronGearEVP(ideal, n2, m.Cores, float64(m.Iterations))
		case m.Config.Solver == "pcsi" && m.Config.Precond == core.PrecondDiagonal:
			eq = perfmodel.EqPCSIDiag(ideal, n2, m.Cores, float64(m.Iterations))
		case m.Config.Solver == "pcsi" && m.Config.Precond == core.PrecondEVP:
			eq = perfmodel.EqPCSIEVP(ideal, n2, m.Cores, float64(m.Iterations))
		default:
			continue
		}
		t.Rows = append(t.Rows, []string{
			m.Config.String(), fmt.Sprint(m.Cores), fmt.Sprint(m.Iterations),
			fmt.Sprintf("%.4g", m.SolveTime), fmt.Sprintf("%.4g", eq),
			fmt.Sprintf("%.2f", m.SolveTime/eq),
		})
	}
	return t, nil
}
