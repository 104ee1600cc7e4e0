package experiments

import (
	"fmt"

	"repro/internal/core"
)

// percentFigure builds the Fig. 1 / Fig. 9 style table: the share of total
// POP execution time spent in the barotropic solver vs the baroclinic mode
// at each core count, for one solver configuration.
func (c *Config) percentFigure(title string, sc SolverConfig) (*Table, error) {
	ms, err := c.Sweep("0.1deg")
	if err != nil {
		return nil, err
	}
	dt := c.gridFor("0.1deg").DtCount
	t := &Table{
		Title:  title,
		Header: []string{"cores", "barotropic_s/day", "baroclinic_s/day", "barotropic_%", "baroclinic_%"},
	}
	for _, cores := range coresAxis(ms) {
		m := find(ms, sc, cores)
		if m == nil {
			continue
		}
		_, baroStep, err := c.BaroclinicStepTime("0.1deg", cores)
		if err != nil {
			return nil, err
		}
		bt := m.DayTime(dt)
		bc := baroStep * float64(dt)
		total := bt + bc
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(m.Cores),
			fmt.Sprintf("%.2f", bt),
			fmt.Sprintf("%.2f", bc),
			fmt.Sprintf("%.1f", 100*bt/total),
			fmt.Sprintf("%.1f", 100*bc/total),
		})
	}
	return t, nil
}

// Fig01 is the paper's Figure 1: percentage of 0.1° POP execution time in
// the barotropic solver (diagonal-preconditioned ChronGear) vs the
// baroclinic mode, growing from ~5% at 470 cores to ~50% at 16,875.
func (c *Config) Fig01() (*Table, error) {
	return c.percentFigure("Fig 1: % of 0.1deg POP time, ChronGear+diagonal",
		SolverConfig{core.MethodChronGear, core.PrecondDiagonal})
}

// Fig09 is Figure 9: the same percentages with P-CSI + block-EVP, dropping
// the barotropic share to ~16% at scale.
func (c *Config) Fig09() (*Table, error) {
	return c.percentFigure("Fig 9: % of 0.1deg POP time, P-CSI+EVP",
		SolverConfig{core.MethodPCSI, core.PrecondEVP})
}

// Fig02 is Figure 2: per-day global-reduction and halo-update times of the
// diagonal ChronGear solver on the 0.1° grid — the communication bottleneck
// evidence.
func (c *Config) Fig02() (*Table, error) {
	ms, err := c.Sweep("0.1deg")
	if err != nil {
		return nil, err
	}
	sc := SolverConfig{core.MethodChronGear, core.PrecondDiagonal}
	dt := float64(c.gridFor("0.1deg").DtCount)
	t := &Table{
		Title:  "Fig 2: ChronGear+diagonal component times, 0.1deg, one sim day",
		Header: []string{"cores", "global_reduction_s", "halo_update_s", "computation_s"},
	}
	for _, cores := range coresAxis(ms) {
		m := find(ms, sc, cores)
		if m == nil {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(m.Cores),
			fmt.Sprintf("%.2f", m.ReduceTime*dt),
			fmt.Sprintf("%.2f", m.HaloTime*dt),
			fmt.Sprintf("%.2f", m.CompTime*dt),
		})
	}
	return t, nil
}

// scalingFigure renders a Fig. 7 / Fig. 8-left style table: barotropic
// seconds per simulated day for all four configurations across cores.
func (c *Config) scalingFigure(title, res string) (*Table, error) {
	ms, err := c.Sweep(res)
	if err != nil {
		return nil, err
	}
	dt := c.gridFor(res).DtCount
	t := &Table{Title: title,
		Header: []string{"cores", "cg+diag_s/day", "cg+evp_s/day", "pcsi+diag_s/day", "pcsi+evp_s/day"}}
	for _, cores := range coresAxis(ms) {
		row := []string{fmt.Sprint(cores)}
		for _, sc := range PaperConfigs {
			m := find(ms, sc, cores)
			row = append(row, fmt.Sprintf("%.3f", m.DayTime(dt)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig07 is Figure 7: 1° barotropic mode execution times per simulated day.
func (c *Config) Fig07() (*Table, error) {
	return c.scalingFigure("Fig 7: barotropic s/day, 1deg, "+c.Machine.Name, "1deg")
}

// Fig08 is Figure 8: 0.1° barotropic times (left) and core simulation rates
// in simulated years per wall-clock day (right).
func (c *Config) Fig08() (*Table, *Table, error) {
	left, err := c.scalingFigure("Fig 8 (left): barotropic s/day, 0.1deg, "+c.Machine.Name, "0.1deg")
	if err != nil {
		return nil, nil, err
	}
	ms, err := c.Sweep("0.1deg")
	if err != nil {
		return nil, nil, err
	}
	dt := c.gridFor("0.1deg").DtCount
	right := &Table{
		Title:  "Fig 8 (right): core simulation rate (sim years / wall day), 0.1deg, " + c.Machine.Name,
		Header: []string{"cores", "cg+diag", "cg+evp", "pcsi+diag", "pcsi+evp"},
	}
	for _, cores := range coresAxis(ms) {
		_, baroStep, err := c.BaroclinicStepTime("0.1deg", cores)
		if err != nil {
			return nil, nil, err
		}
		row := []string{fmt.Sprint(cores)}
		for _, sc := range PaperConfigs {
			m := find(ms, sc, cores)
			dayCost := m.DayTime(dt) + baroStep*float64(dt)
			years := 86400 / (365 * dayCost)
			row = append(row, fmt.Sprintf("%.2f", years))
		}
		right.Rows = append(right.Rows, row)
	}
	return left, right, nil
}

// Fig10 is Figure 10: per-day global-reduction (left) and boundary-update
// (right) times for all four 0.1° solver configurations.
func (c *Config) Fig10() (*Table, *Table, error) {
	ms, err := c.Sweep("0.1deg")
	if err != nil {
		return nil, nil, err
	}
	dt := float64(c.gridFor("0.1deg").DtCount)
	mk := func(title string, pick func(*Measurement) float64) *Table {
		t := &Table{Title: title,
			Header: []string{"cores", "cg+diag", "cg+evp", "pcsi+diag", "pcsi+evp"}}
		for _, cores := range coresAxis(ms) {
			row := []string{fmt.Sprint(cores)}
			for _, sc := range PaperConfigs {
				row = append(row, fmt.Sprintf("%.3f", pick(find(ms, sc, cores))*dt))
			}
			t.Rows = append(t.Rows, row)
		}
		return t
	}
	left := mk("Fig 10 (left): global reduction s/day, 0.1deg, "+c.Machine.Name,
		func(m *Measurement) float64 { return m.ReduceTime })
	right := mk("Fig 10 (right): boundary update s/day, 0.1deg, "+c.Machine.Name,
		func(m *Measurement) float64 { return m.HaloTime })
	return left, right, nil
}

// Tab01 is Table 1: percent improvement of *total* 1° POP time over
// diagonal ChronGear for the three new configurations.
func (c *Config) Tab01() (*Table, error) {
	ms, err := c.Sweep("1deg")
	if err != nil {
		return nil, err
	}
	dt := c.gridFor("1deg").DtCount
	base, newConfigs := PaperConfigs[0], PaperConfigs[1:] // ChronGear+diagonal, then the new three
	t := &Table{
		Title:  "Table 1: % improvement of total 1deg POP time vs ChronGear+diagonal",
		Header: []string{"cores", "ChronGear+EVP", "P-CSI+Diagonal", "P-CSI+EVP"},
	}
	for _, cores := range coresAxis(ms) {
		_, baroStep, err := c.BaroclinicStepTime("1deg", cores)
		if err != nil {
			return nil, err
		}
		baroDay := baroStep * float64(dt)
		baseTotal := find(ms, base, cores).DayTime(dt) + baroDay
		row := []string{fmt.Sprint(cores)}
		for _, sc := range newConfigs {
			total := find(ms, sc, cores).DayTime(dt) + baroDay
			row = append(row, fmt.Sprintf("%.1f%%", 100*(baseTotal-total)/baseTotal))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig11 is Figure 11: the Fig. 8 pair measured on the Edison machine model.
// Because Edison's Dragonfly contention makes ChronGear timings vary run to
// run, ChronGear entries are the average of the best three of `seeds`
// random-seeded runs (§5.3); P-CSI barely feels the noise and uses one run.
// The caller usually constructs the receiver with perfmodel.Edison().
func (c *Config) Fig11(seeds int) (*Table, *Table, error) {
	if seeds < 3 {
		seeds = 3
	}
	// ChronGear re-priced over seeds: rerun the sweep with reseeded
	// machines and replace ChronGear rows by avg-of-best-3.
	left, right, err := c.Fig08()
	if err != nil {
		return nil, nil, err
	}
	left.Title = "Fig 11 (left): barotropic s/day, 0.1deg, " + c.Machine.Name + " (ChronGear avg of best 3)"
	right.Title = "Fig 11 (right): core simulation rate, 0.1deg, " + c.Machine.Name

	ms, err := c.Sweep("0.1deg")
	if err != nil {
		return nil, nil, err
	}
	// Additional seeded reruns for the two ChronGear configurations only
	// (the numerics repeat identically; only the priced contention noise
	// differs, which is the §5.3 observation being reproduced).
	g := c.gridFor("0.1deg")
	dt := g.DtCount
	b := syntheticRHS(g)
	axis := coresAxis(ms)
	for ri, cores := range axis {
		// Contention variability only matters at scale; rerun seeds for the
		// three largest core counts (elsewhere one run is representative).
		if ri < len(axis)-3 {
			continue
		}
		for ci, sc := range PaperConfigs {
			if sc.Solver != core.MethodChronGear {
				continue
			}
			times := []float64{find(ms, sc, cores).DayTime(dt)}
			for s := 1; s < seeds; s++ {
				m, err := c.measureOn(c.Machine.WithSeed(uint64(s)), "0.1deg", g, b, cores, sc)
				if err != nil {
					return nil, nil, err
				}
				times = append(times, m.DayTime(dt))
			}
			left.Rows[ri][ci+1] = fmt.Sprintf("%.3f", avgBest3(times))
		}
	}
	return left, right, nil
}

func avgBest3(times []float64) float64 {
	// insertion-sort the small slice ascending
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	n := min(3, len(times))
	var s float64
	for _, v := range times[:n] {
		s += v
	}
	return s / float64(n)
}
