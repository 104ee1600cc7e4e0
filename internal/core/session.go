package core

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/decomp"
	"repro/internal/faults"
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

	// EVPBlockSize is the block-Jacobi sub-block side (both EVP and
	// block-LU). The paper quotes 12×12 as the stable EVP limit on its
	// near-isotropic grids; the synthetic grids here are more anisotropic,
	// so the default is 8.
	EVPBlockSize int

	// Tol is the relative convergence tolerance: ‖r‖ ≤ Tol·‖b‖ over ocean
	// points. POP's default corresponds to 1e−13.
	Tol float64
	// MaxIters caps solver iterations (default 2000).
	MaxIters int
	// CheckEvery is the convergence-check interval in iterations; the
	// paper uses 10 for all solvers (§5.2).
	CheckEvery int

	// SStep is the communication-avoiding block size of the s-step solver
	// (MethodSStep): s matrix-vector products are batched between global
	// reductions, so a converged solve performs at most ceil(iters/s)+1
	// reductions instead of ~iters. Ignored by every other method. Default
	// 4; valid range 1..MaxSStep. Raising s trades reduction latency for
	// O(s) extra flops per iteration and a worse-conditioned basis — see
	// SOLVERS.md for the crossover guidance.
	SStep int

	// Safety factors widening the estimated spectrum [ν, μ]: Lanczos
	// approaches λ_min from above and λ_max from below, and Chebyshev
	// iteration wants the true spectrum inside the interval. The defaults
	// are deliberately snug (a loose ν inflates the iteration count by
	// √(ν_true/ν)); P-CSI's slow-convergence and divergence guards widen
	// the interval adaptively when a mode leaks outside.
	EigSafetyLow, EigSafetyHigh float64

	// MaxRecoveries bounds the checkpoint rollbacks (crash or NaN-tripwire
	// restores) one resilient solve may perform before surrendering with
	// ErrFaulted. Default 8; negative disables the resilience machinery
	// entirely even when the world carries an active fault injector. It
	// only takes effect when the session's World has an active
	// faults.Injector — without one, solves run the plain algorithm.
	MaxRecoveries int
}

func (o Options) withDefaults() Options {
	if o.EVPBlockSize == 0 {
		o.EVPBlockSize = 8
	}
	if o.Tol == 0 {
		o.Tol = 1e-13
	}
	if o.MaxIters == 0 {
		o.MaxIters = 2000
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 10
	}
	if o.SStep == 0 {
		o.SStep = DefaultSStep
	}
	if o.EigSafetyLow == 0 {
		o.EigSafetyLow = 0.85
	}
	if o.EigSafetyHigh == 0 {
		o.EigSafetyHigh = 1.05
	}
	if o.MaxRecoveries == 0 {
		o.MaxRecoveries = 8
	}
	return o
}

// Session binds an operator, a decomposition, and a communicator into a
// reusable distributed solver: local operators, preconditioners, and field
// buffers persist across solves (as they do across time steps in POP).
type Session struct {
	G    *grid.Grid            // grid the session solves on
	Op   *stencil.Operator     // assembled barotropic operator
	D    *decomp.Decomposition // block-to-rank ownership map
	W    *comm.World           // virtual-rank communicator
	Opts Options               // normalized options (defaults applied)

	perRank []*rankState
	ready   bool
	// drivers[shard] is the shard's Krylov driver (driver.go), kept across
	// solves.
	drivers []*driver

	// SetupStats records the preconditioner preprocessing run.
	SetupStats *comm.Stats

	// Eigenvalue bounds for P-CSI, populated by EstimateEigenvalues.
	Nu, Mu     float64
	EigSteps   int         // Lanczos steps the estimate took
	EigenStats *comm.Stats // communication counters of the estimation run
	// EigTrace is the per-step bound evolution of the last
	// EstimateEigenvalues run (copied into P-CSI Result traces).
	EigTrace []EigBound

	// Workspace arena, sized lazily on first use and reused across solves:
	// outBuf backs every solver's returned solution vector, probeBuf the
	// Lanczos probe. A Result's solution slice therefore stays valid only
	// until the session's next solve — callers keeping it longer (the model
	// time-stepper copies into its own Eta immediately) must copy.
	outBuf   []float64
	probeBuf []float64
	// zeroBuf is the shared all-zeros initial guess SolveContext substitutes
	// for a nil x0. Solvers only scatter *from* the guess, so one read-only
	// buffer serves every solve without a per-request allocation.
	zeroBuf []float64
}

// zeroX0 returns the session-owned all-zeros initial guess (allocated on
// first use, never written afterwards).
func (s *Session) zeroX0() []float64 {
	if s.zeroBuf == nil {
		s.zeroBuf = make([]float64, s.G.N())
	}
	return s.zeroBuf
}

// solveOut returns the session-owned global solution buffer, allocating it
// on first use. Every entry is overwritten by each solve (ocean points by
// the gather, land points by restoreLand), so no zeroing is needed.
func (s *Session) solveOut() []float64 {
	if s.outBuf == nil {
		s.outBuf = make([]float64, s.G.N())
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
}

// NewSession validates the configuration and prepares a session. The
// decomposition must already be assigned to ranks and the world built on it.
func NewSession(g *grid.Grid, op *stencil.Operator, d *decomp.Decomposition, w *comm.World, opts Options) (*Session, error) {
	if g == nil || op == nil || d == nil || w == nil {
		return nil, fmt.Errorf("core: nil session component: %w", ErrBadSpec)
	}
	if op.Nx != g.Nx || op.Ny != g.Ny {
		return nil, fmt.Errorf("core: operator %d×%d does not match grid %d×%d: %w", op.Nx, op.Ny, g.Nx, g.Ny, ErrBadSpec)
	}
	if w.D != d {
		return nil, fmt.Errorf("core: world built on a different decomposition: %w", ErrBadSpec)
	}
	o := opts.withDefaults()
	if o.Tol <= 0 || o.Tol >= 1 {
		return nil, fmt.Errorf("core: tolerance %g out of (0,1): %w", o.Tol, ErrBadSpec)
	}
	if !o.Precond.Valid() {
		return nil, fmt.Errorf("core: unknown preconditioner %v: %w", o.Precond, ErrBadSpec)
	}
	if o.SStep < 1 || o.SStep > MaxSStep {
		return nil, fmt.Errorf("core: s-step block size %d out of 1..%d: %w", o.SStep, MaxSStep, ErrBadSpec)
	}
	return &Session{G: g, Op: op, D: d, W: w, Opts: o,
		perRank: make([]*rankState, d.NRanks)}, nil
}

// BuildSession assembles everything under a session on g and returns
// NewSession over it: the blocking nearest to cores virtual ranks at 3:2
// aspect (cores 0 = the whole grid as one block), one block per rank, the
// machineName cost model ("" = free), and a world of threads worker shards
// with inj and tracer attached (either may be nil — a nil injector leaves
// every communication path bitwise identical, and sessions never share a
// tracer: its rings are single-writer per rank and every session has a
// rank 0). The realized rank count is Session.W.NRank. pop.NewSolver and the
// serve pool both build through here, so a served solve runs on a world
// constructed exactly like a CLI solve's.
func BuildSession(g *grid.Grid, op *stencil.Operator, cores, threads int, machineName string,
	inj *faults.Injector, tracer *obs.Tracer, opts Options) (*Session, error) {
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
	machine, err := perfmodel.ByName(machineName)
	if err != nil {
		return nil, err
	}
	var cost comm.CostModel
	if machine != nil {
		cost = machine
	}
	w, err := comm.NewWorld(d, cost)
	if err != nil {
		return nil, err
	}
	w.Faults = inj
	w.SetThreads(threads)
	// Attached before any Run, so setup and Lanczos spans are captured too
	// (with trace ID 0 — not tied to any request).
	w.Tracer = tracer
	return NewSession(g, op, d, w, opts)
}

// Setup builds per-rank local operators and preconditioners, charging the
// preprocessing flops to the virtual clock. It is idempotent; solvers call
// it lazily, but experiments call it explicitly to time it (the paper
// reports EVP setup cost < one solver call at 512 cores, §4.3).
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
	return nil
}

// setupRank builds one rank's local operators and preconditioners. A block
// whose preconditioner cannot be built falls back to identity and the first
// such error is returned.
func (s *Session) setupRank(r *comm.Rank) error {
	rs := &rankState{fields: make(map[string][][]float64)}
	var firstErr error
	for _, b := range r.Blocks {
		loc := s.D.LocalOperator(s.Op, b)
		rs.locs = append(rs.locs, loc)
		var pre Preconditioner
		var err error
		switch s.Opts.Precond {
		case PrecondIdentity:
			pre = &identityPrecond{loc: loc}
		case PrecondDiagonal:
			pre = newDiagPrecond(loc)
		case PrecondEVP:
			pre, err = newEVPPrecond(s.G, s.Op.Phi, b, loc, s.Opts.EVPBlockSize)
		case PrecondBlockLU:
			pre, err = newBLUPrecond(b, loc, s.Opts.EVPBlockSize)
		default:
			err = fmt.Errorf("core: unknown preconditioner %v: %w", s.Opts.Precond, ErrBadSpec)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			pre = &identityPrecond{loc: loc}
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
// set for this rank.
func (s *Session) field(r *comm.Rank, name string) [][]float64 {
	rs := s.state(r)
	f, ok := rs.fields[name]
	if !ok {
		f = make([][]float64, len(r.Blocks))
		for i, b := range r.Blocks {
			nxp, nyp := s.D.PaddedDims(b)
			f[i] = make([]float64, nxp*nyp)
		}
		rs.fields[name] = f
	}
	return f
}

// scatterMasked copies a global field into the named per-block field,
// zeroing land points (solvers run on the ocean-invariant subspace; land
// rows are restored at gather time).
func (s *Session) scatterMasked(r *comm.Rank, name string, global []float64) [][]float64 {
	f := s.field(r, name)
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
	for k, m := range s.Op.Mask {
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
	RelResidual float64     // ‖r‖/‖b‖ at the last convergence check
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
	// Recovery summarizes what the resilience machinery did during this
	// solve. All-zero for fault-free runs (and always for worlds without an
	// active injector).
	Recovery RecoveryInfo
	// TraceID is the request-scoped trace ID the solve ran under (0 when the
	// solve was not serving a traced request); every rank-level span the
	// solve emitted carries the same ID.
	TraceID uint64
}

// RecoveryInfo counts the recovery actions one solve performed. Populated
// only when the session's World carries an active fault injector and
// Options.MaxRecoveries ≥ 0.
type RecoveryInfo struct {
	// ReduceRetries is how many failed global reductions were re-entered
	// (each retry pays a bounded virtual-clock backoff).
	ReduceRetries int
	// Restores is how many times the iteration state was rolled back to the
	// last checkpoint (rank crash, NaN, stalled recursive residual, or a
	// recurrence's dead end).
	Restores int
	// Reconverges counts convergence confirmations that failed — the check
	// reduction said "converged" but a fresh-halo residual disagreed (stale
	// or corrupted halos), so the solve reset its recurrence and continued.
	Reconverges int
	// CheckpointIter is the iteration of the last checkpoint taken (0 when
	// only the initial state was checkpointed).
	CheckpointIter int
	// Degraded names the fallback rung that produced the result: "" (none),
	// "re-eig" (retried with re-estimated eigenvalue bounds), or
	// "chrongear" (fell back to the ChronGear solver).
	Degraded string
}
