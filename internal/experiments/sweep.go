package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/baroclinic"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// Measurement is one (resolution, solver config, core count) data point:
// measured iteration counts plus virtual times from the priced event
// stream.
type Measurement struct {
	Res     string
	Config  SolverConfig
	Cores   int
	BlockNx int
	BlockNy int

	Iterations int
	Converged  bool

	SolveTime  float64 // virtual seconds per solve (slowest rank)
	CompTime   float64 // per-solve per-rank mean computation time
	HaloTime   float64 // per-solve per-rank mean boundary-update time
	ReduceTime float64 // per-solve per-rank mean global-reduction time

	SetupTime float64 // preconditioner preprocessing (one-time)
	EigTime   float64 // Lanczos eigenvalue estimation (one-time, P-CSI)
	EigSteps  int
}

// DayTime returns the barotropic cost of one simulated day.
func (m *Measurement) DayTime(dtCount int) float64 {
	return m.SolveTime * float64(dtCount)
}

// syntheticRHS builds a reproducible right-hand side b = A·x_true from a
// smooth large-scale SSH-like field — in range space, masked, and with the
// multi-scale structure a real ψ has.
func syntheticRHS(g *grid.Grid, op *stencil.Operator) []float64 {
	x := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if !ocean {
			continue
		}
		lon := g.TLon[k] * math.Pi / 180
		lat := g.TLat[k] * math.Pi / 180
		x[k] = 0.6*math.Sin(2*lon)*math.Cos(3*lat) +
			0.3*math.Cos(5*lon+1)*math.Sin(2*lat) +
			0.1*math.Sin(11*lon)*math.Sin(7*lat+0.5)
	}
	b := make([]float64, g.N())
	op.Apply(b, x)
	for k, ocean := range g.Mask {
		if !ocean {
			b[k] = 0
		}
	}
	return b
}

// measure runs one solver configuration at one core-count target on the
// config's machine.
func (c *Config) measure(res string, g *grid.Grid, op *stencil.Operator, b []float64,
	target int, sc SolverConfig) (Measurement, error) {
	return c.measureOn(c.Machine, res, g, op, b, target, sc)
}

// measureOn runs one solver configuration at one core-count target and
// returns the data point. The same grid/operator/RHS are shared by the
// caller across configurations.
func (c *Config) measureOn(machine *perfmodel.Machine, res string, g *grid.Grid, op *stencil.Operator, b []float64,
	target int, sc SolverConfig) (Measurement, error) {
	sess, err := core.BuildSession(g, op, target, 0, machine, nil, nil, core.Options{Precond: sc.Precond})
	if err != nil {
		return Measurement{}, err
	}
	if err := sess.Setup(); err != nil {
		return Measurement{}, err
	}
	m := Measurement{
		Res: res, Config: sc, Cores: sess.W.NRank, BlockNx: sess.D.BlockNx, BlockNy: sess.D.BlockNy,
		SetupTime: sess.SetupStats.MaxClock,
	}
	if sc.Solver == core.MethodPCSI {
		if _, _, steps, err := sess.EstimateEigenvalues(nil, 0); err != nil {
			return Measurement{}, err
		} else {
			m.EigSteps = steps
		}
		m.EigTime = sess.EigenStats.MaxClock
	}
	solves := c.Solves
	if solves < 1 {
		solves = 1
	}
	x0 := make([]float64, g.N())
	var iters int
	for s := 0; s < solves; s++ {
		res2, _, err := sess.Solve(sc.Solver, b, x0)
		if err != nil && !errors.Is(err, core.ErrNotConverged) { // Converged records a short solve
			return Measurement{}, err
		}
		iters += res2.Iterations
		m.Converged = res2.Converged
		m.SolveTime += res2.Stats.MaxClock
		mean := res2.Stats.MeanCounters()
		m.CompTime += mean.TComp
		m.HaloTime += mean.THalo
		m.ReduceTime += mean.TReduce
	}
	inv := 1 / float64(solves)
	m.Iterations = int(math.Round(float64(iters) * inv))
	m.SolveTime *= inv
	m.CompTime *= inv
	m.HaloTime *= inv
	m.ReduceTime *= inv
	c.logf("%s %s cores=%d block=%dx%d iters=%d solve=%.4gs (comp %.4g, halo %.4g, reduce %.4g)",
		res, sc, m.Cores, m.BlockNx, m.BlockNy, m.Iterations, m.SolveTime, m.CompTime, m.HaloTime, m.ReduceTime)
	c.recorded = append(c.recorded, m)
	return m, nil
}

// Sweep measures every PaperConfig across the resolution's core-count axis
// (cached per machine+resolution).
func (c *Config) Sweep(res string) ([]Measurement, error) {
	key := c.Machine.Name + "/" + res
	if ms, ok := c.sweeps[key]; ok {
		return ms, nil
	}
	g := c.gridFor(res)
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(g.Tau()))
	b := syntheticRHS(g, op)
	var out []Measurement
	for _, target := range c.CoreTargets(res) {
		for _, sc := range PaperConfigs {
			m, err := c.measure(res, g, op, b, target, sc)
			if err != nil {
				return nil, fmt.Errorf("sweep %s %s @%d: %w", res, sc, target, err)
			}
			out = append(out, m)
		}
	}
	c.sweeps[key] = out
	return out, nil
}

// find returns the sweep measurement for a config at a core target.
func find(ms []Measurement, sc SolverConfig, cores int) *Measurement {
	var best *Measurement
	for i := range ms {
		m := &ms[i]
		if m.Config != sc {
			continue
		}
		if best == nil || absInt(m.Cores-cores) < absInt(best.Cores-cores) {
			best = m
		}
	}
	return best
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// coresAxis lists the distinct measured core counts in sweep order.
func coresAxis(ms []Measurement) []int {
	var out []int
	seen := make(map[int]bool)
	for _, m := range ms {
		if !seen[m.Cores] {
			seen[m.Cores] = true
			out = append(out, m.Cores)
		}
	}
	return out
}

// baroPoint is one baroclinic-cost measurement.
type baroPoint struct {
	cores    int
	stepTime float64 // virtual seconds per baroclinic step
}

// BaroclinicStepTime measures (cached) the synthetic baroclinic step cost
// at a core-count target.
func (c *Config) BaroclinicStepTime(res string, target int) (cores int, stepTime float64, err error) {
	key := fmt.Sprintf("%s/%s/%d", c.Machine.Name, res, target)
	if bp, ok := c.baro[key]; ok {
		return bp.cores, bp.stepTime, nil
	}
	g := c.gridFor(res)
	bx, by, cores, err := decomp.ChooseBlocking(g, target, 3, 2)
	if err != nil {
		return 0, 0, err
	}
	d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
	if err != nil {
		return 0, 0, err
	}
	d.AssignOnePerRank()
	w, err := comm.NewWorld(d, c.Machine)
	if err != nil {
		return 0, 0, err
	}
	wl, err := baroclinic.New(d, w, 0)
	if err != nil {
		return 0, 0, err
	}
	st := wl.Step()
	c.baro[key] = baroPoint{cores: cores, stepTime: st.MaxClock}
	c.logf("%s baroclinic cores=%d step=%.4gs", res, cores, st.MaxClock)
	return cores, st.MaxClock, nil
}
