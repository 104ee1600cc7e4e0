package pop

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/serve"
)

func TestNewGridPresets(t *testing.T) {
	g, err := NewGrid(GridTest)
	if err != nil {
		t.Fatal(err)
	}
	if g.Nx != 64 || g.Ny != 48 {
		t.Fatalf("test grid %dx%d", g.Nx, g.Ny)
	}
	if _, err := NewGrid("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSolverFacadeEndToEnd(t *testing.T) {
	g, err := NewGrid(GridTest)
	if err != nil {
		t.Fatal(err)
	}
	op := AssembleOperator(g, g.Tau())
	// b = A·ones over ocean.
	ones := make([]float64, g.N())
	for k, m := range g.Mask {
		if m {
			ones[k] = 1
		}
	}
	b := make([]float64, g.N())
	op.Apply(b, ones)
	for k, m := range g.Mask {
		if !m {
			b[k] = 0
		}
	}

	for _, spec := range []SolverSpec{
		{Method: MethodChronGear, Precond: PrecondDiagonal, Cores: 12},
		{Method: MethodPCSI, Precond: PrecondEVP, Cores: 12, MachineName: "yellowstone"},
		{Method: MethodPCG, Precond: PrecondBlockLU},
	} {
		s, err := NewSolver(g, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		res, x, err := s.Solve(b, nil)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !res.Converged {
			t.Fatalf("%+v did not converge", spec)
		}
		for k, m := range g.Mask {
			if m && math.Abs(x[k]-1) > 1e-8 {
				t.Fatalf("%+v: solution error at %d: %v", spec, k, x[k])
			}
		}
		if spec.MachineName != "" && res.Stats.MaxClock <= 0 {
			t.Fatalf("%+v: priced run has zero virtual time", spec)
		}
	}
}

func TestSolverValidation(t *testing.T) {
	g, _ := NewGrid(GridTest)
	// Out-of-range enum values must be rejected at construction, not
	// silently dispatched to a default solver at solve time.
	if _, err := NewSolver(g, SolverSpec{Method: Method(99)}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown method: err = %v, want ErrBadSpec", err)
	}
	if _, err := NewSolver(g, SolverSpec{Precond: Precond(99)}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown preconditioner: err = %v, want ErrBadSpec", err)
	}
	if _, err := NewSolver(g, SolverSpec{MachineName: "magic"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := NewSolver(nil, SolverSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Fatal("nil grid accepted")
	}
	s, err := NewSolver(g, SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Solve(make([]float64, 3), nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("wrong-length rhs: err = %v, want ErrBadSpec", err)
	}
	// String specs still work through the Parse helpers.
	if m, err := ParseMethod("magic"); err == nil {
		t.Fatalf("ParseMethod(magic) = %v, want error", m)
	} else if !errors.Is(err, ErrBadSpec) {
		t.Fatalf("ParseMethod(magic): err = %v, want ErrBadSpec", err)
	}
	if _, err := ParsePrecond("magic"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("ParsePrecond(magic): err = %v, want ErrBadSpec", err)
	}
}

func TestCSIMethodMapsToUnpreconditioned(t *testing.T) {
	g, _ := NewGrid(GridTest)
	s, err := NewSolver(g, SolverSpec{Method: MethodCSI})
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec.Method != MethodPCSI || s.Spec.Precond != PrecondIdentity {
		t.Fatalf("csi should map onto pcsi+none, got %v+%v", s.Spec.Method, s.Spec.Precond)
	}
}

// TestFrontEndsAgree holds the three front ends that name a solver —
// NewSolver, the solve service's request normalization and the ocean model —
// to one canonical (method, preconditioner) and one ErrBadSpec contract, for
// every method and preconditioner plus the first out-of-range value of each;
// and NewSolver, a served solve and the model to one decomposition at equal
// Cores. All three resolve through core.Canonical and build through
// core.BuildSession, so a front end that forks either fails here.
func TestFrontEndsAgree(t *testing.T) {
	g, err := NewGrid(GridTest)
	if err != nil {
		t.Fatal(err)
	}
	for m := Method(0); ; m++ {
		for p := Precond(0); ; p++ {
			s, errS := NewSolver(g, SolverSpec{Method: m, Precond: p})
			k, errK := serve.NormalizeRequest(serve.Request{Grid: GridTest, Method: m, Precond: p})
			mod, errM := NewModel(ModelConfig{Grid: g, Method: m, SolverOpts: core.Options{Precond: p}})
			bad := !m.Valid() || !p.Valid()
			for name, err := range map[string]error{"NewSolver": errS, "NormalizeRequest": errK, "model.New": errM} {
				if errors.Is(err, ErrBadSpec) != bad || (!bad && err != nil) {
					t.Errorf("%v+%v: %s err = %v, want ErrBadSpec %v", m, p, name, err, bad)
				}
			}
			if !bad && errS == nil && errK == nil && errM == nil {
				want := [2]any{s.Spec.Method, s.Spec.Precond}
				if (want != [2]any{k.Method, k.Precond}) || (want != [2]any{mod.Cfg.Method, mod.Sess.Opts.Precond}) {
					t.Errorf("%v+%v: NewSolver runs %v, NormalizeRequest %v+%v, model.New %v+%v",
						m, p, want, k.Method, k.Precond, mod.Cfg.Method, mod.Sess.Opts.Precond)
				}
			}
			if !p.Valid() {
				break
			}
		}
		if !m.Valid() {
			break
		}
	}

	b := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			b[k] = 1
		}
	}
	for _, cores := range []int{0, 12} {
		s, err := NewSolver(g, SolverSpec{Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModel(ModelConfig{Grid: g, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		svc := serve.New(serve.Options{Cores: cores})
		resp, err := svc.Solve(context.Background(), serve.Request{Grid: GridTest, B: b})
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		sd, md := s.Session.D, mod.Sess.D
		if sd.BlockNx != md.BlockNx || sd.BlockNy != md.BlockNy || s.Cores != mod.Sess.W.NRank ||
			len(resp.Result.Stats.PerRank) != s.Cores {
			t.Errorf("Cores %d: NewSolver %d×%d on %d ranks, model.New %d×%d on %d, served solve on %d",
				cores, sd.BlockNx, sd.BlockNy, s.Cores, md.BlockNx, md.BlockNy, mod.Sess.W.NRank,
				len(resp.Result.Stats.PerRank))
		}
	}
}

func TestSolveContextCancellation(t *testing.T) {
	g, _ := NewGrid(GridTest)
	s, err := NewSolver(g, SolverSpec{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	for k, m := range g.Mask {
		if m {
			b[k] = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.SolveContext(ctx, b, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve: err = %v, want context.Canceled", err)
	}
	if res, _, err := s.SolveContext(context.Background(), b, nil); err != nil || !res.Converged {
		t.Fatalf("background solve after cancel: converged=%v err=%v", res.Converged, err)
	}
}

func TestModelFacade(t *testing.T) {
	g, _ := NewGrid(GridTest)
	m, err := NewModel(ModelConfig{Grid: g, Method: MethodChronGear})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5); err != nil {
		t.Fatal(err)
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"yellowstone", "edison", "ideal"} {
		m, err := MachineByName(name)
		if err != nil || m == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if m, err := MachineByName(""); err != nil || m != nil {
		t.Fatal("empty machine should be nil, nil")
	}
}

func TestExperimentNames(t *testing.T) {
	names := ExperimentNames()
	want := map[string]bool{"fig1": true, "fig8": true, "fig13": true, "tab1": true}
	found := 0
	for _, n := range names {
		if want[n] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("registry missing expected experiments: %v", names)
	}
}

// TestCappedSolveOneContract holds the one failure contract: a solve
// capped at MaxIters short of Tol ends in a *NotConvergedError, whose
// Iterations is the solve's own, through every front end — Solver.Solve,
// SolveResilient with no injector, a Service and a Fleet — for every
// method.
func TestCappedSolveOneContract(t *testing.T) {
	g, err := NewGrid(GridTest)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	AssembleOperator(g, g.Tau()).Apply(b, g.HT) // any nonzero right-hand side
	for k, ocean := range g.Mask {
		if !ocean {
			b[k] = 0
		}
	}
	opts := SolverOptions{MaxIters: 3}
	worker := ServiceOptions{Cores: 4, Threads: 1, Solver: opts}
	svc := NewService(worker)
	defer svc.Close(context.Background())
	flt, err := NewFleet(FleetOptions{Workers: 1, Worker: worker, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close(context.Background())
	for _, name := range core.MethodNames() {
		m, err := ParseMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			s, err := NewSolver(g, SolverSpec{Method: m, Cores: 4, Threads: 1, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := s.Solve(b, nil)
			want := res.Iterations
			check := func(front string, err error, iters int) {
				t.Helper()
				var nc *NotConvergedError
				if !errors.As(err, &nc) || nc.Iterations != want || iters != want {
					t.Errorf("%s: got %v after %d iterations, want a *NotConvergedError after %d", front, err, iters, want)
				}
			}
			check("Solver.Solve", err, want)
			res, _, err = s.SolveResilient(context.Background(), b, nil)
			check("SolveResilient", err, res.Iterations)
			req := ServeRequest{Grid: GridTest, Method: m, Precond: PrecondDiagonal, B: b}
			_, err = svc.Solve(context.Background(), req)
			check("Service.Solve", err, want)
			_, err = flt.Solve(context.Background(), FleetRequest{Request: req})
			check("Fleet.Solve", err, want)
		})
	}
}

// TestSolverDefaultStepIsTheGrids: SolverSpec.Tau = 0 assembles the
// operator at the grid's own step, 86400 / DtCount, and a grid with no
// step of its own needs an explicit Tau.
func TestSolverDefaultStepIsTheGrids(t *testing.T) {
	for _, name := range grid.PresetNames() {
		if name == GridTenthDegree {
			continue // below
		}
		g, err := NewGrid(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(g, SolverSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if want := AssembleOperator(g, 86400/float64(g.DtCount)); !reflect.DeepEqual(s.Op, want) {
			t.Errorf("%s: NewSolver's default operator is not the one at 86400/%d s", name, g.DtCount)
		}
		if s.Spec.Tau != g.Tau() {
			t.Errorf("%s: Spec.Tau = %g, want the grid's %g", name, s.Spec.Tau, g.Tau())
		}
	}
	// The full 0.1° grid costs gigabytes to build a solver on; its step is
	// its Spec's, which Generate copies.
	if got, want := grid.TenthDegreeSpec().DtCount, grid.QuarterScaleTenthSpec().DtCount; got != want || want != 500 {
		t.Errorf("0.1deg dt_count %d, 0.1deg-scaled %d; want 500 both", got, want)
	}
	flat := NewFlatBasin(8, 8, 1000, 1e4, 1e4)
	if _, err := NewSolver(flat, SolverSpec{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("a grid with no step and no Tau: got %v, want ErrBadSpec", err)
	}
	if _, err := NewSolver(flat, SolverSpec{Tau: 600}); err != nil {
		t.Errorf("a grid with no step and an explicit Tau: %v", err)
	}
}

// TestTenthScaledPCSIConvergesAtItsStep is the paper's method on the scaled
// 0.1° grid at 200 cores with nothing but the grid's own step: P-CSI+EVP
// converges in ≈ 80 iterations (at the 1° step it ran out of 2,000).
func TestTenthScaledPCSIConvergesAtItsStep(t *testing.T) {
	g, err := NewGrid(GridTenthDegreeScaled)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(g, SolverSpec{Method: MethodPCSI, Precond: PrecondEVP, Cores: 200})
	if err != nil {
		t.Fatal(err)
	}
	// popsolve's right-hand side: b = A·x for a smooth x.
	x := make([]float64, g.N())
	for k, ocean := range g.Mask {
		if ocean {
			x[k] = math.Sin(2*g.TLon[k]*math.Pi/180) * math.Cos(3*g.TLat[k]*math.Pi/180)
		}
	}
	b := make([]float64, g.N())
	s.Op.Apply(b, x)
	for k, ocean := range g.Mask {
		if !ocean {
			b[k] = 0
		}
	}
	res, _, err := s.Solve(b, nil)
	if err != nil || res.Iterations > 200 {
		t.Fatalf("P-CSI+EVP at the grid's step: %v after %d iterations, want convergence in ≤ 200", err, res.Iterations)
	}
}
