package model

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/stencil"
)

func smallConfig() Config {
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 48, 36
	spec.Name = "model-test"
	return Config{
		Grid:       grid.Generate(spec),
		Method:     core.MethodChronGear,
		SolverOpts: core.Options{Precond: core.PrecondDiagonal},
	}
}

func TestModelStepsStable(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	for k, ocean := range m.G.Mask {
		if !ocean {
			if m.U[k] != 0 || m.Eta[k] != 0 {
				t.Fatalf("land point %d has nonzero state", k)
			}
			continue
		}
		if math.IsNaN(m.Eta[k]) || math.Abs(m.Eta[k]) > 50 {
			t.Fatalf("SSH blew up at %d: %v", k, m.Eta[k])
		}
		if math.Abs(m.U[k]) > 10 || math.Abs(m.V[k]) > 10 {
			t.Fatalf("velocity blew up at %d: (%v, %v)", k, m.U[k], m.V[k])
		}
		for l := range m.Temp {
			if m.Temp[l][k] < -5 || m.Temp[l][k] > 40 {
				t.Fatalf("temperature out of range at layer %d point %d: %v", l, k, m.Temp[l][k])
			}
		}
	}
	if len(m.IterHistory) != 50 {
		t.Fatalf("iteration history %d entries, want 50", len(m.IterHistory))
	}
}

func TestWindSpinsUpCirculation(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ke := m.KineticEnergy(); ke != 0 {
		t.Fatalf("initial KE %v, want 0", ke)
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if ke := m.KineticEnergy(); ke <= 0 {
		t.Fatalf("wind produced no circulation: KE=%v", ke)
	}
}

func TestMeanSSHConserved(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(60); err != nil {
		t.Fatal(err)
	}
	// Flux-form continuity conserves volume up to solver tolerance; the
	// scale of η excursions is O(0.1 m), so the mean must be far smaller.
	if mean := math.Abs(m.MeanSSH()); mean > 1e-6 {
		t.Fatalf("mean SSH drifted to %v", mean)
	}
}

func TestDeterministicRestartFreeRuns(t *testing.T) {
	run := func() float64 {
		m, err := New(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(30); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range m.Eta {
			sum += v
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("model runs not bitwise reproducible: %v vs %v", a, b)
	}
}

func TestSolverChoiceAgreesClosely(t *testing.T) {
	// Two models differing only in solver should stay close over a short
	// run (they diverge chaotically over long ones — that's §6's point).
	cfgA := smallConfig()
	mA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := smallConfig()
	cfgB.Method = core.MethodPCSI
	cfgB.SolverOpts = core.Options{Precond: core.PrecondEVP}
	mB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := mA.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := mB.Run(20); err != nil {
		t.Fatal(err)
	}
	var maxD float64
	for k := range mA.Eta {
		if d := math.Abs(mA.Eta[k] - mB.Eta[k]); d > maxD {
			maxD = d
		}
	}
	if maxD > 1e-8 {
		t.Fatalf("solver choice changed short-run SSH by %v", maxD)
	}
	if maxD == 0 {
		t.Fatal("different solvers bitwise identical — suspicious (tolerance should leave round-off differences)")
	}
}

func TestPerturbationSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.PerturbTemperature(1e-14, 1)
	b.PerturbTemperature(1e-14, 2)
	diff := 0
	for k := range a.Temp[0] {
		if a.Temp[0][k] != b.Temp[0][k] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("perturbation seeds produced identical initial temperature")
	}
}

func TestPerturbationsPersist(t *testing.T) {
	// On coarse test grids the circulation is a steady attractor, so twin
	// trajectories neither explode nor collapse: O(1e−14) temperature
	// differences must persist on the slow dissipative timescale. (The §6
	// envelope methodology then works because solver round-off is
	// re-injected every step while this background decays slowly.)
	if raceEnabled {
		t.Skip("1,100 model steps of arithmetic: 14–42 s under the race detector, which the solver tests already cover; verify.sh runs it at GOMAXPROCS=1")
	}
	base, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(300); err != nil {
		t.Fatal(err)
	}
	a, err := base.Fork(base.Cfg.Method, base.Cfg.SolverOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Fork(base.Cfg.Method, base.Cfg.SolverOpts)
	if err != nil {
		t.Fatal(err)
	}
	a.PerturbTemperature(1e-14, 1)
	b.PerturbTemperature(1e-14, 2)
	rms := func() float64 {
		var s float64
		n := 0
		for k, ocean := range a.G.Mask {
			if ocean {
				d := a.Temp[0][k] - b.Temp[0][k]
				s += d * d
				n++
			}
		}
		return math.Sqrt(s / float64(n))
	}
	initial := rms()
	if err := a.Run(400); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(400); err != nil {
		t.Fatal(err)
	}
	final := rms()
	if final < initial/100 {
		t.Fatalf("perturbations collapsed: %g → %g", initial, final)
	}
	if final > 1e-9 {
		t.Fatalf("perturbations exploded: %g → %g", initial, final)
	}
}

// An unknown method is a construction-time error, never a failed first step.
func TestBadSolverName(t *testing.T) {
	cfg := smallConfig()
	cfg.Method = core.Method(99)
	if _, err := New(cfg); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("New with method 99: err = %v, want ErrBadSpec", err)
	}
}

// MethodCSI is plain CSI in the model exactly as in pop.NewSolver: P-CSI with
// identity preconditioning, whatever preconditioner the options carry — so
// its steps take the iterations of an explicit pcsi+none model.
func TestCSIRunsUnpreconditioned(t *testing.T) {
	run := func(method core.Method, precond core.PrecondType) *Model {
		cfg := smallConfig()
		cfg.Method = method
		cfg.SolverOpts.Precond = precond
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(5); err != nil {
			t.Fatal(err)
		}
		return m
	}
	csi := run(core.MethodCSI, core.PrecondDiagonal)
	if csi.Cfg.Method != core.MethodPCSI || csi.Sess.Opts.Precond != core.PrecondIdentity {
		t.Fatalf("csi runs %v+%v, want pcsi+none", csi.Cfg.Method, csi.Sess.Opts.Precond)
	}
	want := run(core.MethodPCSI, core.PrecondIdentity).IterHistory
	if !slices.Equal(csi.IterHistory, want) {
		t.Fatalf("csi iterations per step %v, want pcsi+none's %v", csi.IterHistory, want)
	}
}

// A step whose solve stops short of its tolerance fails with the solver's
// own *NotConvergedError.
func TestStepSurfacesNotConverged(t *testing.T) {
	cfg := smallConfig()
	cfg.SolverOpts.MaxIters = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nc *core.NotConvergedError
	if err := m.Step(); !errors.As(err, &nc) || nc.Iterations != 2 {
		t.Fatalf("capped step: got %v, want a *NotConvergedError after 2 iterations", err)
	}
}

func TestNilGrid(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted nil grid")
	}
}

// The model steps at its grid's τ = 86400 / DtCount, as every solver front
// end does: its operator's φ is the one at that step, on a 1° and a 0.1°
// step alike, and a grid with no step of its own is a bad spec.
func TestModelStepIsTheGrids(t *testing.T) {
	tenth := grid.QuarterScaleTenthSpec()
	tenth.Nx, tenth.Ny, tenth.Name = 48, 32, "model-test-tenth"
	for _, g := range []*grid.Grid{smallConfig().Grid, grid.Generate(tenth)} {
		cfg := smallConfig()
		cfg.Grid = g
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := stencil.PhiFromTimeStep(g.Tau()); m.Sess.Phi != want || g.Tau() != 86400/float64(g.DtCount) {
			t.Errorf("%s: model φ %g, want %g at the grid's τ = 86400/%d s", g.Name, m.Sess.Phi, want, g.DtCount)
		}
	}
	cfg := smallConfig()
	cfg.Grid = grid.NewFlatBasin(8, 8, 1000, 1e4, 1e4)
	if _, err := New(cfg); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("a grid with no step: err = %v, want ErrBadSpec", err)
	}
}

func TestDistributedModelMatchesSerial(t *testing.T) {
	cfgA := smallConfig()
	mA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := smallConfig()
	cfgB.Cores = 12
	mB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if mB.Sess.W.NRank <= 1 {
		t.Fatalf("Cores 12 realized %d rank(s), want a distributed run", mB.Sess.W.NRank)
	}
	if err := mA.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := mB.Run(10); err != nil {
		t.Fatal(err)
	}
	var maxD float64
	for k := range mA.Eta {
		if d := math.Abs(mA.Eta[k] - mB.Eta[k]); d > maxD {
			maxD = d
		}
	}
	if maxD > 1e-9 {
		t.Fatalf("decomposition changed the model by %v", maxD)
	}
}

func TestCheckpointRestartBitwise(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(25); err != nil {
		t.Fatal(err)
	}

	m2, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if m2.StepCount != 40 {
		t.Fatalf("restored step count %d, want 40", m2.StepCount)
	}
	if err := m2.Run(25); err != nil {
		t.Fatal(err)
	}
	for k := range m.Eta {
		if m.Eta[k] != m2.Eta[k] {
			t.Fatalf("restart not bitwise identical at %d: %v vs %v", k, m.Eta[k], m2.Eta[k])
		}
	}
	for l := range m.Temp {
		for k := range m.Temp[l] {
			if m.Temp[l][k] != m2.Temp[l][k] {
				t.Fatalf("restart temperature differs at layer %d point %d", l, k)
			}
		}
	}
}

func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	m, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The layer count is the model's constant, but a checkpoint file comes
	// from outside the process: a 4-layer file is rejected, whether its
	// header says so or claims the model's count.
	n := m.G.N()
	m2, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []int{4, nz} {
		four := checkpoint{GridName: m.G.Name, Nx: m.G.Nx, Ny: m.G.Ny, NZ: header,
			Eta: make([]float64, n), U: make([]float64, n), V: make([]float64, n),
			Temp: make([][]float64, 4), StericRef: make([]float64, n)}
		for l := range four.Temp {
			four.Temp[l] = make([]float64, n)
		}
		var fourBuf bytes.Buffer
		if err := gob.NewEncoder(&fourBuf).Encode(&four); err != nil {
			t.Fatal(err)
		}
		if err := m2.Restore(&fourBuf); err == nil {
			t.Fatalf("restore accepted a 4-layer checkpoint whose header says %d", header)
		}
	}
	spec := grid.TestSpec()
	spec.Nx, spec.Ny = 32, 24
	spec.Name = "other-grid"
	cfg := smallConfig()
	cfg.Grid = grid.Generate(spec)
	m3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := m3.Restore(&buf); err == nil {
		t.Fatal("restore accepted a checkpoint from a different grid")
	}
}
