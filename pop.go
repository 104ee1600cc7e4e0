// Package pop is the public API of this reproduction of "Improving the
// Scalability of the Ocean Barotropic Solver in the Community Earth System
// Model" (SC '15): POP-style synthetic ocean grids, the nine-point implicit
// free-surface operator, the barotropic solvers (ChronGear, PCG, CSI and
// P-CSI) with diagonal/block-EVP/block-LU preconditioning on a virtual-rank
// communication substrate, a wind-driven barotropic ocean model with the
// ensemble-based solver-verification machinery of §6, and drivers that
// regenerate every table and figure in the paper's evaluation.
//
// Quick start:
//
//	g, _ := pop.NewGrid(pop.GridOneDegree)
//	solver, _ := pop.NewSolver(g, pop.SolverSpec{Method: pop.MethodPCSI, Precond: pop.PrecondEVP, Cores: 96})
//	res, x, _ := solver.Solve(b, nil)
//
// For serving many solves concurrently, see NewService. See examples/ for
// runnable programs and cmd/popbench for the experiment harness.
package pop

import (
	"cmp"
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/stencil"
)

// Re-exported substrate types. The aliases make the full internal APIs
// available to users of this package.
type (
	// Grid is a curvilinear ocean grid with land mask and metrics.
	Grid = grid.Grid
	// GridSpec parameterizes synthetic grid generation.
	GridSpec = grid.Spec
	// Operator is the assembled nine-point barotropic operator.
	Operator = stencil.Operator
	// Result summarizes one solve (iterations, convergence, virtual-time
	// statistics).
	Result = core.Result
	// Machine is a priced machine model (Yellowstone, Edison, Ideal).
	Machine = perfmodel.Machine
	// Model is the barotropic ocean model with temperature tracers.
	Model = model.Model
	// ModelConfig configures a Model run.
	ModelConfig = model.Config
	// Ensemble accumulates the §6 RMSZ statistics.
	Ensemble = stats.Ensemble
	// SolverOptions exposes the full solver option set.
	SolverOptions = core.Options

	// Method selects the solver algorithm (see the Method* constants).
	Method = core.Method
	// Precond selects the preconditioner (see the Precond* constants).
	Precond = core.PrecondType
	// NotConvergedError carries the iteration count and final residual of
	// a solve that stopped short of its tolerance; match with
	// errors.As(err, &nc) or errors.Is(err, ErrNotConverged).
	NotConvergedError = core.NotConvergedError

	// Service is the concurrent solve front end: a pool of warmed-up
	// sessions served by batching workers behind bounded queues.
	Service = serve.Service
	// ServiceOptions configures NewService.
	ServiceOptions = serve.Options
	// ServeRequest is one solve submission to a Service.
	ServeRequest = serve.Request
	// ServeResponse is one completed Service solve.
	ServeResponse = serve.Response
	// ServiceStats is a snapshot of a Service's counters.
	ServiceStats = serve.Stats

	// Fleet is the sharded serving layer: N solve workers behind a router
	// with consistent-hash sharding and a content-addressed result cache
	// that replays completed solves bitwise.
	Fleet = fleet.Fleet
	// FleetOptions configures NewFleet.
	FleetOptions = fleet.Options
	// FleetRequest is one solve submission to a Fleet.
	FleetRequest = fleet.Request
	// FleetResponse is one completed Fleet solve (worker response plus
	// cache disposition and shard).
	FleetResponse = fleet.Response

	// MetricsRegistry is the metrics registry a Service reports into
	// (counters, gauges, histograms with Prometheus text exposition).
	MetricsRegistry = obs.Registry
	// FlightRecorder is the always-on ring of a Service's most recent
	// request span summaries (Service.Flight).
	FlightRecorder = obs.FlightRecorder
	// RequestRecord is one request's span summary: trace ID, per-phase wall
	// durations, and the solve's virtual-time statistics.
	RequestRecord = obs.RequestRecord
	// Attribution is a request's critical-path decomposition (admit, queue,
	// batch wait, compute, halo, reduce, straggler slack).
	Attribution = obs.Attribution
	// PerfettoTrace is a parsed Perfetto/Chrome trace-event export: the
	// rank tracks and request records ReadPerfetto rebuilds from the file
	// Service.WritePerfetto, popsolve -trace or popmodel -trace wrote.
	PerfettoTrace = obs.PerfettoTrace
)

// Solver methods. The zero value is ChronGear, POP's production solver.
const (
	// MethodChronGear is Algorithm 1: a PCG variant with one fused global
	// reduction per iteration.
	MethodChronGear = core.MethodChronGear
	// MethodPCG is classic preconditioned conjugate gradients.
	MethodPCG = core.MethodPCG
	// MethodPCSI is the paper's preconditioned Stiefel iteration
	// (Algorithm 2): no reductions outside convergence checks.
	MethodPCSI = core.MethodPCSI
	// MethodCSI is plain Stiefel iteration — MethodPCSI with identity
	// preconditioning (NewSolver normalizes it to exactly that).
	MethodCSI = core.MethodCSI
	// MethodSStep is the communication-avoiding s-step PCG with a Chebyshev
	// basis: s = 4 matrix-vector products batched between single fused
	// global reductions — at most ceil(iters/s)+1 reductions per converged
	// solve. SOLVERS.md says why s is 4.
	MethodSStep = core.MethodSStep
)

// Preconditioners. The zero value is diagonal, POP's default.
const (
	// PrecondDiagonal is POP's default M = Λ(A).
	PrecondDiagonal = core.PrecondDiagonal
	// PrecondIdentity disables preconditioning.
	PrecondIdentity = core.PrecondIdentity
	// PrecondEVP is the paper's block-Jacobi EVP preconditioner (§4.3).
	PrecondEVP = core.PrecondEVP
	// PrecondBlockLU is the dense block-LU comparator (§4.1).
	PrecondBlockLU = core.PrecondBlockLU
)

// Float64 is a vestige pinned by benchmark/: the frozen benchmark passes
// pop.Float64 to api.HashSolve (benchmark/probes_serving.go:26,
// benchmark/bench_test.go:152). Every solve runs in double precision and
// nothing else reads the constant; it goes with HashSolve's parameter in the
// next benchmark PR.
const Float64 = core.Float64

// Typed errors of the public solve path, matchable with errors.Is /
// errors.As.
var (
	// ErrBadSpec marks configuration errors: unknown methods,
	// preconditioners or grids, out-of-range options, wrong-length
	// vectors.
	ErrBadSpec = core.ErrBadSpec
	// ErrNotConverged marks solves that stopped short of their tolerance;
	// concrete errors carry a *NotConvergedError.
	ErrNotConverged = core.ErrNotConverged
	// ErrOverloaded marks Service requests shed because a queue was full.
	ErrOverloaded = serve.ErrOverloaded
	// ErrServiceClosed marks Service requests rejected during drain.
	ErrServiceClosed = serve.ErrClosed
)

// ParseMethod maps a method name ("chrongear", "pcg", "pcsi", "csi",
// "sstep"; "" = chrongear) to its Method; unknown names match ErrBadSpec.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParsePrecond maps a preconditioner name ("diagonal", "evp", "blocklu",
// "none"; "" = diagonal) to its Precond; unknown names match ErrBadSpec.
func ParsePrecond(s string) (Precond, error) { return core.ParsePrecond(s) }

// NewService starts a concurrent solve service: Solve from any number of
// goroutines; Close drains it. See cmd/popserver for the HTTP front end.
func NewService(opts ServiceOptions) *Service { return serve.New(opts) }

// NewFleet starts a sharded solve fleet: N in-process services behind a
// router with consistent-hash sharding and a result cache.
// See cmd/popserver's -fleet mode for the HTTP front end.
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.New(opts) }

// NewTraceID allocates a fresh request trace ID (monotone, deterministic —
// never derived from time or randomness).
func NewTraceID() uint64 { return obs.NewTraceID() }

// ContextWithTraceID attaches a caller-chosen trace ID to ctx; a Service
// solve under that context stamps the ID onto every rank-level span it
// emits and returns it in ServeResponse.TraceID.
func ContextWithTraceID(ctx context.Context, id uint64) context.Context {
	return obs.ContextWithTraceID(ctx, id)
}

// TraceIDFromContext returns the trace ID attached to ctx, 0 when absent.
func TraceIDFromContext(ctx context.Context) uint64 { return obs.TraceIDFromContext(ctx) }

// ReadPerfetto parses a Perfetto/Chrome trace-event export produced by
// Service.WritePerfetto (popserver's /debug/trace endpoint) or a command's
// -trace flag.
func ReadPerfetto(r io.Reader) (*PerfettoTrace, error) { return obs.ReadPerfetto(r) }

// AttributeRecord decomposes one request record into its critical-path
// attribution — the computation cmd/poptrace prints.
func AttributeRecord(rec RequestRecord) Attribution { return obs.AttributeRecord(rec) }

// Preset grid names for NewGrid (and Service requests).
const (
	// GridOneDegree is the paper's 1° production grid (320×384).
	GridOneDegree = grid.PresetOneDegree
	// GridTenthDegree is the paper's 0.1° grid (3600×2400; ~8.6M points).
	GridTenthDegree = grid.PresetTenthDegree
	// GridTenthDegreeScaled keeps the 0.1° geography at 1/16 the points.
	GridTenthDegreeScaled = grid.PresetTenthDegreeScaled
	// GridTest is a small grid for experimentation (64×48).
	GridTest = grid.PresetTest
)

// NewGrid generates one of the preset synthetic grids.
func NewGrid(preset string) (*Grid, error) { return grid.ByName(preset) }

// GenerateGrid builds a synthetic grid from a custom spec.
func GenerateGrid(spec GridSpec) *Grid { return grid.Generate(spec) }

// NewFlatBasin returns an all-ocean rectangular test basin.
func NewFlatBasin(nx, ny int, depth, dx, dy float64) *Grid {
	return grid.NewFlatBasin(nx, ny, depth, dx, dy)
}

// AssembleOperator builds the implicit free-surface operator for barotropic
// time step tau (seconds).
func AssembleOperator(g *Grid, tau float64) *Operator {
	return stencil.Assemble(g, stencil.PhiFromTimeStep(tau))
}

// MachineByName returns a machine model: "yellowstone", "edison", "ideal",
// or "" (free: zero-cost, numerics only).
func MachineByName(name string) (*Machine, error) { return perfmodel.ByName(name) }

// SolverSpec configures NewSolver. The zero value is POP's production
// configuration: ChronGear with diagonal preconditioning. String
// configurations (CLI flags, config files) convert via ParseMethod and
// ParsePrecond.
type SolverSpec struct {
	// Method selects the solver algorithm; zero value MethodChronGear.
	Method Method
	// Precond selects the preconditioner; zero value PrecondDiagonal.
	Precond Precond
	// Tau is the barotropic time step used for the operator's mass term
	// (0 = the grid's own step, Grid.Tau).
	Tau float64
	// Cores is the virtual rank count (0 = one block covering the whole
	// grid, on one rank; otherwise the nearest 3:2-aspect blocking is
	// chosen).
	Cores int
	// Threads caps how many virtual ranks execute concurrently on real
	// cores: ranks are sharded into Threads contiguous groups, each driven
	// by one worker that runs its ranks one at a time (0 = GOMAXPROCS;
	// values above the rank count mean one rank per worker). Solutions are
	// bitwise identical across all settings — only wall-clock and cache
	// behavior change.
	Threads int
	// MachineName prices virtual time ("" = free).
	MachineName string
	// Options exposes the remaining solver knobs (tolerance, EVP block
	// size, Lanczos controls); zero values take defaults. Options.Precond
	// is overwritten from Precond.
	Options SolverOptions
}

// Solver bundles a decomposition, communicator, and session built over a
// grid. It keeps no reference to the grid, and its session lets go of it
// once set up (by the first solve or estimate, or Session.Setup): from then
// on the solver holds per-block state, the ocean mask and its output buffer.
type Solver struct {
	// Spec is the configuration NewSolver was given, after normalization
	// (Tau 0 resolved to the grid's step, MethodCSI rewritten to
	// MethodPCSI + PrecondIdentity).
	Spec SolverSpec
	// Session is the underlying distributed solver session; it exposes the
	// lower-level solve entry points and the solve arenas.
	Session *core.Session
	// Cores is the realized virtual rank count (one rank per ocean block,
	// which can differ from SolverSpec.Cores after blocking).
	Cores int
}

// NewSolver builds a distributed solver over g. Unknown methods and
// preconditioners — including out-of-range enum values — are rejected here,
// matching ErrBadSpec, never deferred to solve time.
func NewSolver(g *Grid, spec SolverSpec) (*Solver, error) {
	if g == nil {
		return nil, fmt.Errorf("pop: nil grid: %w", ErrBadSpec)
	}
	if spec.Tau = cmp.Or(spec.Tau, g.Tau()); spec.Tau == 0 {
		return nil, fmt.Errorf("pop: grid %q has no barotropic step and SolverSpec.Tau is 0: %w", g.Name, ErrBadSpec)
	}
	var err error
	if spec.Method, spec.Precond, err = core.Canonical(spec.Method, spec.Precond); err != nil {
		return nil, err
	}
	machine, err := perfmodel.ByName(spec.MachineName)
	if err != nil {
		return nil, err
	}
	opts := spec.Options
	opts.Precond = spec.Precond

	sess, err := core.BuildSession(g, stencil.PhiFromTimeStep(spec.Tau), spec.Cores, spec.Threads, machine, nil, opts)
	if err != nil {
		return nil, err
	}
	return &Solver{Spec: spec, Session: sess, Cores: sess.W.NRank}, nil
}

// Solve runs the configured method on right-hand side b with initial guess
// x0 (nil = zero) and returns the result and the solution. It is
// SolveContext with a background context.
func (s *Solver) Solve(b, x0 []float64) (Result, []float64, error) {
	return s.SolveContext(context.Background(), b, x0)
}

// SolveContext is Solve honouring ctx: cancellation and deadlines are
// observed at each convergence-check boundary (every CheckEvery
// iterations), so an interrupted solve returns promptly — with an error
// matching ctx's cause — without ever perturbing the numerics between
// checks. The returned solution slice is the session's reusable arena,
// valid until the next solve on this solver.
func (s *Solver) SolveContext(ctx context.Context, b, x0 []float64) (Result, []float64, error) {
	return s.Session.SolveContext(ctx, s.Spec.Method, b, x0)
}

// EstimateEigenvalues exposes the Lanczos bounds estimation (P-CSI setup).
// Pass nil for the robust random probe.
func (s *Solver) EstimateEigenvalues(b []float64, maxSteps int) (nu, mu float64, steps int, err error) {
	return s.Session.EstimateEigenvalues(b, maxSteps)
}

// NewModel builds the barotropic ocean model.
func NewModel(cfg ModelConfig) (*Model, error) { return model.New(cfg) }

// Experiments is the per-figure experiment harness.
type Experiments = experiments.Config

// NewExperiments prepares an experiment context ("yellowstone" machine when
// m is nil). quick selects reduced-scale grids.
func NewExperiments(m *Machine, quick bool, progress io.Writer) *Experiments {
	return experiments.NewConfig(m, quick, progress)
}

// RunExperiment executes one experiment by id ("fig1".."fig13", "tab1",
// "evpsetup"), writing its tables to w.
func RunExperiment(id string, c *Experiments, w io.Writer) error {
	return experiments.Run(id, c, w)
}

// ExperimentNames lists the available experiment ids.
func ExperimentNames() []string { return experiments.Names() }

// NewEnsemble prepares a §6 RMSZ accumulator over fields of the given
// length; mask selects participating points (nil = all).
func NewEnsemble(length int, mask []bool) *Ensemble {
	return stats.NewEnsemble(length, mask)
}

// RMSE is the paper's simple port-verification metric.
func RMSE(a, b []float64, include []bool) float64 { return stats.RMSE(a, b, include) }
