package pop

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/model"
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
	op := AssembleOperator(g, 1920)
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
	m, err := NewModel(ModelConfig{Grid: g, Solver: model.SolverChronGear})
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
