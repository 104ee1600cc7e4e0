package core

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// Options configures a solver Session. The zero value is completed by
// DefaultOptions-style fallbacks in NewSession.
type Options struct {
	// Precond selects the preconditioner (default PrecondIdentity).
	Precond PrecondType

	// Tol is the relative convergence tolerance: ‖r‖ ≤ Tol·‖b‖ over ocean
	// points (default DefaultTol).
	Tol float64
	// MaxIters caps solver iterations (default 2000); a solve that reaches
	// it short of Tol returns a *NotConvergedError.
	MaxIters int
	// CheckEvery is the convergence-check interval in iterations; the
	// paper uses 10 for all solvers (§5.2).
	CheckEvery int
}

// DefaultTol is the tolerance a zero Options.Tol selects: POP's 1e−13. It
// is the one definition the fleet's cache keys share, so a key can never
// name a solve at another tolerance than the one its worker ran.
const DefaultTol = 1e-13

// evpBlockSize is the block-Jacobi sub-block side of both EVP and block-LU.
// The paper quotes 12×12 as the stable EVP limit on its near-isotropic
// grids; the synthetic grids here are more anisotropic, so it is 8.
const evpBlockSize = 8

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIters == 0 {
		o.MaxIters = 2000
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 10
	}
	return o
}

// Session binds a grid, a decomposition, and a communicator into a
// reusable distributed solver: local operators, preconditioners, and field
// buffers persist across solves (as they do across time steps in POP). It
// holds no whole-grid operator: each block's is assembled from the grid,
// and once Setup has built every block the session lets the grid go. A
// set-up session keeps per-block state, the ocean mask and its output
// buffer.
type Session struct {
	D    *decomp.Decomposition // block-to-rank ownership map
	W    *comm.World           // virtual-rank communicator
	Opts Options               // normalized options (defaults applied)
	Phi  float64               // the operator's mass coefficient (stencil.PhiFromTimeStep)

	// g is the grid the blocks are assembled from, kept until Setup
	// succeeds (so a failed Setup can be retried) and nil after. mask is the
	// grid's ocean mask (its array, shared), all the solves read of it.
	g    *grid.Grid
	mask []bool

	perRank []*rankState
	ready   bool

	// SetupStats records the preconditioner preprocessing run.
	SetupStats *comm.Stats

	// Eigenvalue bounds for P-CSI, populated by EstimateEigenvalues.
	Nu, Mu     float64
	EigSteps   int         // Lanczos steps the estimate took
	EigenStats *comm.Stats // communication counters of the estimation run
	// EigTrace is the per-step bound evolution of the last
	// EstimateEigenvalues run (copied into P-CSI and s-step Result traces).
	EigTrace []EigBound
	// resBuf is the residual history a solve records into, kept across
	// solves; each Result gets its own exact-length copy.
	resBuf []ResidualPoint

	// outBuf backs every solver's returned solution vector, allocated on
	// first use and reused across solves. A Result's solution slice
	// therefore stays valid only until the session's next solve — callers
	// keeping it longer (the model time-stepper copies into its own Eta
	// immediately) must copy.
	outBuf []float64
}

// N returns the number of grid points the session solves over: the length
// of every right-hand side, initial guess and solution.
func (s *Session) N() int { return len(s.mask) }

// solveOut returns the session-owned global solution buffer, allocating it
// on first use. Every entry is overwritten by each solve (ocean points by
// the gather, land points by restoreLand), so no zeroing is needed.
func (s *Session) solveOut() []float64 {
	if s.outBuf == nil {
		s.outBuf = make([]float64, s.N())
	}
	return s.outBuf
}

// rankState is the per-rank persistent state; only the worker running the
// rank's shard builds and mutates its entry.
type rankState struct {
	locs   []*stencil.Local
	pre    []Preconditioner
	fields map[string][][]float64
	loop   loop // the rank's Krylov driver state (driver.go)
	// drivers are the Krylov drivers of the shards this rank is the first
	// rank of, one per shard length (Session.driver).
	drivers []*driver
}

// NewSession validates the configuration and prepares a session that
// solves op's system. It reads op's mass coefficient and dimensions and
// keeps nothing of it: the blocks assemble their operators from g. The
// decomposition must already be assigned to ranks and the world built on it.
func NewSession(g *grid.Grid, op *stencil.Operator, d *decomp.Decomposition, w *comm.World, opts Options) (*Session, error) {
	if op == nil {
		return nil, fmt.Errorf("core: nil session component: %w", ErrBadSpec)
	}
	if g != nil && (op.Nx != g.Nx || op.Ny != g.Ny) {
		return nil, fmt.Errorf("core: operator %d×%d does not match grid %d×%d: %w", op.Nx, op.Ny, g.Nx, g.Ny, ErrBadSpec)
	}
	return newSession(g, op.Phi, d, w, opts)
}

func newSession(g *grid.Grid, phi float64, d *decomp.Decomposition, w *comm.World, opts Options) (*Session, error) {
	if g == nil || d == nil || w == nil {
		return nil, fmt.Errorf("core: nil session component: %w", ErrBadSpec)
	}
	if w.D != d {
		return nil, fmt.Errorf("core: world built on a different decomposition: %w", ErrBadSpec)
	}
	if d.Halo != 1 {
		return nil, fmt.Errorf("core: halo %d, but block operators pad by one cell: %w", d.Halo, ErrBadSpec)
	}
	o := opts.withDefaults()
	if o.Tol <= 0 || o.Tol >= 1 {
		return nil, fmt.Errorf("core: tolerance %g out of (0,1): %w", o.Tol, ErrBadSpec)
	}
	if !o.Precond.Valid() {
		return nil, fmt.Errorf("core: unknown preconditioner %v: %w", o.Precond, ErrBadSpec)
	}
	if o.MaxIters < 0 {
		return nil, fmt.Errorf("core: MaxIters %d negative: %w", o.MaxIters, ErrBadSpec)
	}
	if o.CheckEvery < 0 {
		return nil, fmt.Errorf("core: CheckEvery %d negative: %w", o.CheckEvery, ErrBadSpec)
	}
	return &Session{D: d, W: w, Opts: o, Phi: phi, g: g, mask: g.Mask,
		perRank: make([]*rankState, d.NRanks)}, nil
}

// BuildSession assembles everything under a session solving g's operator
// with mass coefficient phi: the blocking nearest to cores virtual ranks at
// 3:2 aspect (cores 0 = the whole grid as one block), one block per rank, the
// machine's cost model (nil = free), and a world of threads worker shards
// with tracer attached (nil = untraced; sessions never share a tracer: its
// rings are single-writer per rank and every session has a rank 0). The
// realized rank count is Session.W.NRank. It is the one place a
// decomposition, a world and a session are built: pop.NewSolver, the serve
// pool, the ocean model and the experiments all build through here, so each
// runs on a world constructed exactly like a CLI solve's.
func BuildSession(g *grid.Grid, phi float64, cores, threads int, machine *perfmodel.Machine,
	tracer *obs.Tracer, opts Options) (*Session, error) {
	bx, by := g.Nx, g.Ny
	if cores > 0 {
		var err error
		if bx, by, _, err = decomp.ChooseBlocking(g, cores, 3, 2); err != nil {
			return nil, err
		}
	}
	d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
	if err != nil {
		return nil, err
	}
	d.AssignOnePerRank()
	var cost comm.CostModel // a nil *Machine must stay a nil interface
	if machine != nil {
		cost = machine
	}
	w, err := comm.NewWorld(d, cost)
	if err != nil {
		return nil, err
	}
	w.SetThreads(threads)
	// Attached before any Run, so setup and Lanczos spans are captured too
	// (with trace ID 0 — not tied to any request).
	w.Tracer = tracer
	return newSession(g, phi, d, w, opts)
}

// Setup builds per-rank local operators and preconditioners, charging the
// preprocessing flops to the virtual clock, and on success drops the
// session's reference to the grid: nothing after it reads more than the
// mask. It is idempotent; solvers call it lazily, but experiments call it
// explicitly to time it (the paper reports EVP setup cost < one solver call
// at 512 cores, §4.3).
func (s *Session) Setup() error {
	if s.ready {
		return nil
	}
	var mu sync.Mutex
	var firstErr error
	st := s.W.RunShards(func(sh *comm.Shard) {
		for _, r := range sh.Each {
			if err := s.setupRank(r); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	s.SetupStats = &st
	s.ready = true
	s.g = nil
	return nil
}

// setupRank builds one rank's local operators and preconditioners. A block
// whose preconditioner cannot be built falls back to identity and the first
// such error is returned.
func (s *Session) setupRank(r *comm.Rank) error {
	rs := &rankState{fields: make(map[string][][]float64)}
	var firstErr error
	for _, b := range r.Blocks {
		loc := stencil.AssembleWindow(s.g, s.Phi, b.X0, b.Y0, b.NxI, b.NyI, 0)
		rs.locs = append(rs.locs, loc)
		var pre Preconditioner
		var err error
		switch s.Opts.Precond {
		case PrecondIdentity:
			pre = newIdentityPrecond(loc)
		case PrecondDiagonal:
			pre = newDiagPrecond(loc)
		case PrecondEVP:
			pre, err = newEVPPrecond(s.g, s.Phi, b, loc, evpBlockSize)
		case PrecondBlockLU:
			pre, err = newBLUPrecond(b, loc, evpBlockSize)
		default:
			err = fmt.Errorf("core: unknown preconditioner %v: %w", s.Opts.Precond, ErrBadSpec)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			pre = newIdentityPrecond(loc)
		}
		r.AddFlops(pre.SetupFlops())
		rs.pre = append(rs.pre, pre)
	}
	s.perRank[r.ID] = rs
	return firstErr
}

// state returns the rank's persistent state (Setup must have run).
func (s *Session) state(r *comm.Rank) *rankState {
	return s.perRank[r.ID]
}

// field returns (allocating on first use) the named per-block padded field
// set for this rank, kept for the session's life.
func (s *Session) field(r *comm.Rank, name string) [][]float64 {
	rs := s.state(r)
	f, ok := rs.fields[name]
	if !ok {
		f = s.newField(r)
		rs.fields[name] = f
	}
	return f
}

// newField allocates a zeroed per-block padded field set for this rank that
// the session does not keep.
func (s *Session) newField(r *comm.Rank) [][]float64 {
	f := make([][]float64, len(r.Blocks))
	for i, b := range r.Blocks {
		nxp, nyp := s.D.PaddedDims(b)
		f[i] = make([]float64, nxp*nyp)
	}
	return f
}

// scatterMasked copies a global field into the rank's per-block field set
// f and returns f, zeroing land points (solvers run on the ocean-invariant
// subspace; land rows are restored at gather time).
func (s *Session) scatterMasked(r *comm.Rank, f [][]float64, global []float64) [][]float64 {
	for i, b := range r.Blocks {
		s.D.ScatterInto(f[i], global, b)
		loc := s.state(r).locs[i]
		arr := f[i]
		for k := range arr {
			if !loc.Mask[k] {
				arr[k] = 0
			}
		}
	}
	return f
}

// zeroField clears the named field.
func (s *Session) zeroField(r *comm.Rank, name string) [][]float64 {
	f := s.field(r, name)
	zeroFields(f)
	return f
}

// zeroFields clears per-block field sets.
func zeroFields(fields ...[][]float64) {
	for _, f := range fields {
		for _, arr := range f {
			clear(arr)
		}
	}
}

// restoreLand sets the identity land rows x = b everywhere, including
// blocks eliminated from the decomposition (solvers iterate only on the
// ocean subspace).
func (s *Session) restoreLand(x, b []float64) {
	for k, m := range s.mask {
		if !m {
			x[k] = b[k]
		}
	}
}

// Result summarizes one distributed solve.
type Result struct {
	Solver      string      // method name ("chrongear", "pcsi", "sstep", ...)
	Precond     PrecondType // preconditioner the solve used
	Iterations  int         // iterations executed
	Converged   bool        // whether the tolerance was met
	RelResidual float64     // ‖r‖/‖b‖ at the last check; of the returned x when MaxIters ended the solve
	BNorm       float64     // ‖b‖ over ocean points
	Stats       comm.Stats  // per-rank communication/compute counters
	// P-CSI extras.
	Nu, Mu   float64
	EigSteps int // Lanczos steps behind the interval (0 = none run)
	// Trace is the per-iteration telemetry (residual history at each
	// convergence check; for P-CSI also the Lanczos bound evolution and
	// interval-widening events). Always recorded — appends happen only at
	// convergence checks, so the cost is negligible.
	Trace *SolveTrace
	// TraceID is the request-scoped trace ID the solve ran under (0 when the
	// solve was not serving a traced request); every rank-level span the
	// solve emitted carries the same ID.
	TraceID uint64
}
