package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
)

// flipCtx is a context whose Err flips to Canceled after `after` calls.
// Ranks observe it racing past the threshold mid-check, which is exactly
// the hazard the cancellation protocol defuses: local observations may
// disagree, but the reduced flag is identical on every rank.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

var contextSolvers = map[string]Method{
	"chrongear": MethodChronGear,
	"pcg":       MethodPCG,
	"pcsi":      MethodPCSI,
}

func TestSolvePreCancelledContext(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	for name, m := range contextSolvers {
		s := f.session(t, Options{Precond: PrecondDiagonal})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := s.SolveContext(ctx, m, f.b, x0)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestSolveExpiredDeadline(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := s.SolveContext(ctx, MethodChronGear, f.b, make([]float64, f.g.N()))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelledSolveResidualPrefix cancels each solver mid-solve and checks
// the protocol's central guarantee: the residual history of the cancelled
// solve is a bitwise prefix of the uncancelled one — cancellation can stop
// a solve but never steer it.
func TestCancelledSolveResidualPrefix(t *testing.T) {
	f := testFixture(t)
	x0 := make([]float64, f.g.N())
	for name, m := range contextSolvers {
		full := f.session(t, Options{Precond: PrecondDiagonal})
		res, _, err := full.Solve(m, f.b, x0)
		if err != nil || !res.Converged {
			t.Fatalf("%s: uncancelled solve failed: converged=%v err=%v", name, res.Converged, err)
		}
		if len(res.Trace.Residuals) < 3 {
			t.Fatalf("%s: solve too short to cancel mid-way (%d checks)", name, len(res.Trace.Residuals))
		}

		// Let the pre-solve check and the first two checks (one Err call per
		// rank each) pass, then flip mid-third-check: ranks disagree locally,
		// the reduction arbitrates.
		ctx := &flipCtx{Context: context.Background(), after: int64(1 + 2*f.d.NRanks)}
		cs := f.session(t, Options{Precond: PrecondDiagonal})
		cres, _, cerr := cs.SolveContext(ctx, m, f.b, x0)
		if !errors.Is(cerr, context.Canceled) {
			t.Fatalf("%s: cancelled solve: err = %v, want context.Canceled", name, cerr)
		}
		if cres.Converged {
			t.Fatalf("%s: cancelled solve reported converged", name)
		}
		got := cres.Trace.Residuals
		want := res.Trace.Residuals
		if len(got) == 0 || len(got) >= len(want) {
			t.Fatalf("%s: cancelled solve recorded %d checks, full solve %d — expected a strict non-empty prefix",
				name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: check %d: cancelled %+v != full %+v — cancellation perturbed the numerics",
					name, i, got[i], want[i])
			}
		}
	}
}

func TestSolveContextDispatch(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal})
	res, x, err := s.SolveContext(context.Background(), MethodChronGear, f.b, nil)
	if err != nil || !res.Converged {
		t.Fatalf("SolveContext(chrongear): converged=%v err=%v", res.Converged, err)
	}
	if len(x) != f.g.N() {
		t.Fatalf("solution length %d, want %d", len(x), f.g.N())
	}

	if _, _, err := s.SolveContext(context.Background(), Method(99), f.b, nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown method: err = %v, want ErrBadSpec", err)
	}
	if _, _, err := s.SolveContext(context.Background(), MethodChronGear, f.b[:3], nil); !errors.Is(err, ErrBadSpec) {
		t.Errorf("short rhs: err = %v, want ErrBadSpec", err)
	}
	if _, _, err := s.SolveContext(context.Background(), MethodChronGear, f.b, make([]float64, 3)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("short x0: err = %v, want ErrBadSpec", err)
	}
}

// TestSolveContextCSIAlias checks MethodCSI dispatches to the Stiefel
// iteration (identity preconditioning is applied by construction-time code,
// not the dispatcher).
func TestSolveContextCSIAlias(t *testing.T) {
	// Unpreconditioned CSI needs a well-conditioned system: small tau means
	// a strong mass term.
	f := newFixture(t, grid.Generate(grid.TestSpec()), 4, 3, 100)
	s := f.session(t, Options{Precond: PrecondIdentity, Tol: 1e-6})
	res, _, err := s.SolveContext(context.Background(), MethodCSI, f.b, nil)
	if err != nil || !res.Converged {
		t.Fatalf("SolveContext(csi): converged=%v err=%v", res.Converged, err)
	}
	if res.Solver != "pcsi" {
		t.Errorf("csi dispatched to %q, want pcsi", res.Solver)
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodChronGear, MethodPCG, MethodPCSI, MethodCSI} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
		if !m.Valid() {
			t.Errorf("%v.Valid() = false", m)
		}
	}
	if m, err := ParseMethod(""); err != nil || m != MethodChronGear {
		t.Errorf("ParseMethod(\"\") = %v, %v; want ChronGear default", m, err)
	}
	if _, err := ParseMethod("magic"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("ParseMethod(magic): err = %v, want ErrBadSpec", err)
	}
	if Method(99).Valid() {
		t.Error("Method(99).Valid() = true")
	}
}

func TestParsePrecondRoundTrip(t *testing.T) {
	cases := map[string]PrecondType{
		"":         PrecondDiagonal,
		"diagonal": PrecondDiagonal,
		"evp":      PrecondEVP,
		"blocklu":  PrecondBlockLU,
		"none":     PrecondIdentity,
	}
	for s, want := range cases {
		got, err := ParsePrecond(s)
		if err != nil || got != want {
			t.Errorf("ParsePrecond(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePrecond("magic"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("ParsePrecond(magic): err = %v, want ErrBadSpec", err)
	}
}

func TestNotConvergedErrorMatching(t *testing.T) {
	err := error(&NotConvergedError{Solver: "pcsi", Iterations: 42, RelResidual: 0.5})
	if !errors.Is(err, ErrNotConverged) {
		t.Error("NotConvergedError does not match ErrNotConverged")
	}
	var nc *NotConvergedError
	if !errors.As(err, &nc) || nc.Iterations != 42 {
		t.Errorf("errors.As failed or lost fields: %+v", nc)
	}
}

// TestPCSIDivergenceTypedError forces a Chebyshev interval far below the
// spectrum — every mode above μ amplifies, faster than the raise-μ guard
// can recover — and checks the failure surfaces as a NotConvergedError.
func TestPCSIDivergenceTypedError(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal, MaxIters: 300})
	if err := s.Setup(); err != nil {
		t.Fatal(err)
	}
	s.Nu, s.Mu = 1e-9, 2e-9 // spectrum of the diagonally-scaled operator is O(1)
	res, _, err := s.Solve(MethodPCSI, f.b, make([]float64, f.g.N()))
	if res.Converged {
		t.Skip("bogus interval unexpectedly converged")
	}
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("diverged pcsi: err = %v, want ErrNotConverged", err)
	}
	var nc *NotConvergedError
	if !errors.As(err, &nc) {
		t.Fatalf("diverged pcsi: err %v is not a NotConvergedError", err)
	}
	if nc.Iterations == 0 || nc.RelResidual <= 1e6 {
		t.Errorf("NotConvergedError fields not populated: %+v", nc)
	}
}
