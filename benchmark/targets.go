package main

import (
	"context"
	"fmt"
	"math/rand"

	pop "repro"
)

// inputs are the generated systems of one run, built once per process from
// the seed on the benchmark's own grid and operator — the system under test
// builds its own and receives only the vectors.
type inputs struct {
	g  *pop.Grid
	op *pop.Operator
	ps []problem
}

func newInputs(w workload, seed int64) (*inputs, error) {
	g, err := pop.NewGrid(w.grid)
	if err != nil {
		return nil, err
	}
	n := popRHS
	switch {
	case w.hit:
		n = hitRHSPerKey
	case w.fleet:
		n = 2 // the two base fields unique requests are blended from
	}
	op := pop.AssembleOperator(g, solveTau)
	return &inputs{g: g, op: op, ps: problems(g, op, seed, 1, n)}, nil
}

// verify checks o's answer to the system (b, xTrue) against both limits
// and leaves the true residual it measured in o.
func (in *inputs) verify(scratch []float64, o *op, b, xTrue []float64) error {
	if !o.conv {
		return fmt.Errorf("not converged")
	}
	if len(o.x) != len(b) {
		return fmt.Errorf("answer has %d points, want %d", len(o.x), len(b))
	}
	res, errInf := checkAnswer(in.op, scratch, o.x, b, xTrue)
	o.trueRes = res
	if !(res <= maxTrueResidual) {
		return fmt.Errorf("true residual %.3g above %.3g", res, maxTrueResidual)
	}
	if !(errInf <= maxSolutionError) {
		return fmt.Errorf("solution error %.3g above %.3g", errInf, maxSolutionError)
	}
	return nil
}

func solverSpec(w workload) pop.SolverSpec {
	return pop.SolverSpec{
		Method: w.key.method, Precond: w.key.precond,
		Tau: solveTau, Cores: w.cores, MachineName: machineName,
		Options: pop.SolverOptions{Tol: solveTol},
	}
}

// popTarget drives one pop.Solver from one caller.
type popTarget struct {
	in      *inputs
	solver  *pop.Solver
	scratch []float64
}

// setupPop builds what a user builds before the first solve — grid, solver
// — and runs the first solve, which pays the lazy EVP factorisation and
// the Lanczos estimate.
func setupPop(w workload, in *inputs, rec *recorder, parent int) (*popTarget, error) {
	t := &popTarget{in: in, scratch: make([]float64, in.g.N())}
	var err error
	var g *pop.Grid
	rec.timed("grid.generate", parent, 0, func() { g, err = pop.NewGrid(w.grid) })
	if err != nil {
		return nil, err
	}
	rec.timed("pop.new_solver", parent, 0, func() { t.solver, err = pop.NewSolver(g, solverSpec(w)) })
	if err != nil {
		return nil, err
	}
	rec.timed("core.first_solve", parent, 0, func() { err = t.warm(0) })
	return t, err
}

// warm runs and checks one untimed operation.
func (t *popTarget) warm(i int) error {
	var o op
	t.prepare(i, &o)
	if err := t.solve(&o); err != nil {
		return err
	}
	return t.check(&o)
}

func (t *popTarget) prepare(i int, o *op) {
	o.pick = i % len(t.in.ps)
	o.b = t.in.ps[o.pick].b
}

func (t *popTarget) solve(o *op) error {
	res, x, err := t.solver.Solve(o.b, nil)
	o.x, o.conv = x, res.Converged
	return err
}

func (t *popTarget) check(o *op) error {
	p := t.in.ps[o.pick]
	return t.in.verify(t.scratch, o, p.b, p.xTrue)
}

func (t *popTarget) solveSpan() string { return "core.solve" }
func (t *popTarget) close() error      { return nil }

// answer is what one request returned.
type answer struct {
	x     []float64
	cache string // "" when no router was involved
	conv  bool
}

// streamTarget drives a request/response system — a fleet, a bare service,
// or bare solvers — from several clients with the fleet workloads' request
// stream: four session keys round-robin, every right-hand side either
// unique (a blend of two base fields) or, for the hit workload, one of the
// pre-solved ones.
type streamTarget struct {
	in   *inputs
	grid string
	hit  bool
	// send is the timed call; shut releases the system; span names the
	// span recorded around send.
	send func(client, key int, b []float64) (answer, error)
	shut func() error
	span string
	// fleet is the system itself when it is a fleet: its answers carry a
	// cache disposition to check, and its counters feed the ledger.
	fleet *pop.Fleet
	// answers[key][pick] is the set-up answer a cache hit must replay
	// bit for bit (hit workload only).
	answers [][][]float64
	// Per-client state: blend weights come from the client's own stream,
	// and each client checks with its own scratch.
	rngs    []*rand.Rand
	scratch [][]float64
	xTrue   [][]float64
}

// newStream prepares the client-side state for clients clients plus one
// extra stream that set-up sends from.
func newStream(w workload, in *inputs, seed int64, clients int) *streamTarget {
	t := &streamTarget{in: in, grid: w.grid, hit: w.hit}
	for c := 0; c <= clients; c++ {
		t.rngs = append(t.rngs, inputRNG(seed, 100+c))
		t.scratch = append(t.scratch, make([]float64, in.g.N()))
		t.xTrue = append(t.xTrue, make([]float64, in.g.N()))
	}
	return t
}

func serviceOptions() pop.ServiceOptions {
	return pop.ServiceOptions{
		Cores: fleetWorkerCores, Tau: solveTau, MachineName: machineName,
		MaxSessionsPerKey: 1,
		Solver:            pop.SolverOptions{Tol: solveTol},
	}
}

func serveRequest(grid string, key int, b []float64) pop.ServeRequest {
	k := fleetKeys[key]
	return pop.ServeRequest{Grid: grid, Method: k.method, Precond: k.precond, B: b}
}

// overFleet points the stream at a new two-worker fleet.
func (t *streamTarget) overFleet() error {
	f, err := pop.NewFleet(pop.FleetOptions{Workers: fleetWorkers, Worker: serviceOptions()})
	if err != nil {
		return err
	}
	t.fleet, t.span = f, "fleet.solve"
	t.send = func(_, key int, b []float64) (answer, error) {
		resp, err := f.Solve(context.Background(), pop.FleetRequest{Request: serveRequest(t.grid, key, b)})
		return answer{x: resp.X, cache: resp.Cache, conv: resp.Result.Converged}, err
	}
	t.shut = func() error { return f.Close(context.Background()) }
	return nil
}

// setupFleet starts the fleet and sends the requests that must precede the
// timed ones: every (key, problem) pair once for the hit workload, so each
// timed request finds its answer cached; warmups unique requests per key
// for the miss workload, so every session exists and has factorised.
func setupFleet(w workload, in *inputs, seed int64, rec *recorder, parent int) (*streamTarget, error) {
	t := newStream(w, in, seed, w.clients)
	var err error
	rec.timed("fleet.new", parent, 0, func() { err = t.overFleet() })
	if err != nil {
		return nil, err
	}
	rec.timed("fleet.prefill", parent, 0, func() { err = t.prefill(w.clients) })
	return t, err
}

// prefill sends the set-up requests from the given client stream and then
// checks their answers.
func (t *streamTarget) prefill(client int) error {
	rounds := warmups
	if t.hit {
		rounds = hitRHSPerKey
		t.answers = make([][][]float64, len(fleetKeys))
	}
	sent := make([]op, rounds*len(fleetKeys))
	for i := range sent {
		o := &sent[i]
		o.client = client
		t.prepareMiss(i, o, t.hit)
		if err := t.solve(o); err != nil {
			return err
		}
	}
	for i := range sent {
		o := &sent[i]
		if err := t.checkMiss(o, t.hit); err != nil {
			return fmt.Errorf("set-up request %d: %w", i, err)
		}
		if t.hit {
			t.answers[o.key] = append(t.answers[o.key], o.x)
		}
	}
	return nil
}

// prepareMiss builds request i as one the cache has not seen: stored
// problem i/keys when stored is set (set-up of the hit workload), else a
// fresh blend of the two base fields.
func (t *streamTarget) prepareMiss(i int, o *op, stored bool) {
	o.key = i % len(fleetKeys)
	if stored {
		o.pick = i / len(fleetKeys)
		o.b = t.in.ps[o.pick].b
		return
	}
	o.t = t.rngs[o.client].Float64()
	if o.b == nil {
		o.b = make([]float64, t.in.g.N())
	}
	blend(o.b, t.in.ps[0].b, t.in.ps[1].b, o.t)
}

func (t *streamTarget) checkMiss(o *op, stored bool) error {
	if t.fleet != nil && o.cache != "miss" {
		return fmt.Errorf("cache disposition %q, want miss", o.cache)
	}
	if stored {
		p := t.in.ps[o.pick]
		return t.in.verify(t.scratch[o.client], o, p.b, p.xTrue)
	}
	xTrue := t.xTrue[o.client]
	blend(xTrue, t.in.ps[0].xTrue, t.in.ps[1].xTrue, o.t)
	return t.in.verify(t.scratch[o.client], o, o.b, xTrue)
}

func (t *streamTarget) prepare(i int, o *op) {
	if !t.hit {
		t.prepareMiss(i, o, false)
		return
	}
	// Clients start on different keys and walk every (key, problem) pair.
	n := i + o.client
	o.key = n % len(fleetKeys)
	o.pick = (n / len(fleetKeys)) % hitRHSPerKey
	o.b = t.in.ps[o.pick].b
}

func (t *streamTarget) solve(o *op) error {
	a, err := t.send(o.client, o.key, o.b)
	o.x, o.cache, o.conv = a.x, a.cache, a.conv
	return err
}

func (t *streamTarget) check(o *op) error {
	if !t.hit {
		return t.checkMiss(o, false)
	}
	if o.cache != "hit" {
		return fmt.Errorf("cache disposition %q, want hit", o.cache)
	}
	want := t.answers[o.key][o.pick]
	if len(o.x) != len(want) {
		return fmt.Errorf("answer has %d points, want %d", len(o.x), len(want))
	}
	for k, v := range want {
		if o.x[k] != v {
			return fmt.Errorf("replayed answer differs from the set-up answer at point %d", k)
		}
	}
	return nil
}

func (t *streamTarget) solveSpan() string { return t.span }
func (t *streamTarget) close() error      { return t.shut() }
