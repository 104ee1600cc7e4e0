package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
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
	b := syntheticRHS(g)
	targets := c.CoreTargets(res)
	t := &Table{Header: []string{"check_every", "cg_iters", "cg_s/solve", "pcsi_iters", "pcsi_s/solve"}}
	var cores int
	for _, every := range []int{1, 5, 10, 20, 50} {
		row := []string{fmt.Sprint(every)}
		for _, method := range []core.Method{core.MethodChronGear, core.MethodPCSI} {
			sess, err := core.BuildSession(g, stencil.PhiFromTimeStep(g.Tau()), targets[len(targets)-1], 0, c.Machine, nil,
				core.Options{Precond: core.PrecondEVP, CheckEvery: every})
			if err != nil {
				return nil, err
			}
			res2, _, err := sess.Solve(method, b, nil)
			if err != nil {
				return nil, err
			}
			cores = sess.W.NRank
			row = append(row, fmt.Sprint(res2.Iterations), fmt.Sprintf("%.4g", res2.Stats.MaxClock))
		}
		t.Rows = append(t.Rows, row)
		c.logf("checkfreq %d done", every)
	}
	t.Title = fmt.Sprintf("Ablation: convergence-check interval, %s @ %d cores, %s", res, cores, c.Machine.Name)
	return t, nil
}

// SStepAblation measures the communication-avoiding s-step solver's
// reduction saving at the resolution's top core count with EVP: ChronGear
// and P-CSI against s-step at s = core.SStepBlock, each row giving
// iterations, global reductions per rank, priced seconds per solve and the
// closed form (Eqs. 5–6 and their s-step analogue) at the measured K. An
// s-step solve does at most ceil(K/s)+1 reductions; whether that beats
// ChronGear's ~K depends on what the extra s² Gram dots and basis matvecs
// cost at this core count. Lanczos runs before each solve, so its
// reductions stay out of the solve's count.
func (c *Config) SStepAblation(res string) (*Table, error) {
	g := c.gridFor(res)
	b := syntheticRHS(g)
	targets := c.CoreTargets(res)
	n2 := float64(g.Nx) * float64(g.Ny)
	t := &Table{Header: []string{"solver", "s", "iters", "converged", "reductions/rank", "s/solve", "eq_s/solve"}}
	var cores int
	for _, method := range []core.Method{core.MethodChronGear, core.MethodPCSI, core.MethodSStep} {
		sess, err := core.BuildSession(g, stencil.PhiFromTimeStep(g.Tau()), targets[len(targets)-1], 0, c.Machine, nil,
			core.Options{Precond: core.PrecondEVP})
		if err != nil {
			return nil, err
		}
		cores = sess.W.NRank
		if _, _, _, err := sess.EstimateEigenvalues(nil, 0); err != nil {
			return nil, err
		}
		r, _, err := sess.Solve(method, b, nil)
		if err != nil && !errors.Is(err, core.ErrNotConverged) {
			return nil, err
		}
		k := float64(r.Iterations)
		eq, sCol := 0.0, "-"
		switch method {
		case core.MethodChronGear:
			eq = perfmodel.EqChronGearEVP(c.Machine, n2, cores, k)
		case core.MethodPCSI:
			eq = perfmodel.EqPCSIEVP(c.Machine, n2, cores, k)
		default:
			eq, sCol = perfmodel.EqSStepEVP(c.Machine, n2, cores, k, core.SStepBlock), fmt.Sprint(core.SStepBlock)
		}
		t.Rows = append(t.Rows, []string{
			method.String(), sCol, fmt.Sprint(r.Iterations), fmt.Sprint(r.Converged),
			fmt.Sprint(r.Stats.Sum.Reductions / int64(len(r.Stats.PerRank))),
			fmt.Sprintf("%.4g", r.Stats.MaxClock), fmt.Sprintf("%.4g", eq),
		})
		c.logf("sstep %s done", method)
	}
	t.Title = fmt.Sprintf("Ablation: s-step reduction saving, %s @ %d cores, evp, %s", res, cores, c.Machine.Name)
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
		case m.Config.Solver == core.MethodChronGear && m.Config.Precond == core.PrecondDiagonal:
			eq = perfmodel.EqChronGearDiag(ideal, n2, m.Cores, float64(m.Iterations))
		case m.Config.Solver == core.MethodChronGear && m.Config.Precond == core.PrecondEVP:
			eq = perfmodel.EqChronGearEVP(ideal, n2, m.Cores, float64(m.Iterations))
		case m.Config.Solver == core.MethodPCSI && m.Config.Precond == core.PrecondDiagonal:
			eq = perfmodel.EqPCSIDiag(ideal, n2, m.Cores, float64(m.Iterations))
		case m.Config.Solver == core.MethodPCSI && m.Config.Precond == core.PrecondEVP:
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
