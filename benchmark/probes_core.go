package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	pop "repro"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/evp"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// timeMS records the median of reps runs of f as metric name, in ms, inside
// the span probe.<name>.
func (l *ledger) timeMS(name string, reps int, f func()) {
	id := l.rec.begin("probe."+name, l.root, 0)
	d := medianOf(reps, f)
	l.rec.end(id)
	l.set(name, float64(d)/1e6, "ms")
}

// layers is the workload's configuration rebuilt layer by layer through
// each layer's own constructor — what pop.NewSolver does in one call — so
// that every step can be timed from outside and the later probes have the
// grid, operator, decomposition and world to call into.
type layers struct {
	g       *grid.Grid
	op      *stencil.Operator
	d       *decomp.Decomposition
	machine *perfmodel.Machine
	sess    *core.Session
	// block is the ocean block with the median interior size: the block a
	// typical rank owns.
	block *decomp.Block
}

// decompose blocks g for the requested core count the way pop.NewSolver does.
func decompose(g *grid.Grid, cores int) (*decomp.Decomposition, error) {
	bx, by, _, err := decomp.ChooseBlocking(g, cores, 3, 2)
	if err != nil {
		return nil, err
	}
	d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
	if err != nil {
		return nil, err
	}
	d.AssignOnePerRank()
	return d, nil
}

// probeSetup times each constructor on the way to a ready session:
// grid.generate_ms, stencil.assemble_ms, decomp.new_ms, comm.new_world_ms,
// core.new_session_ms and core.first_solve_ms, plus the decomposition's
// exact shape counts. These are what setup_s is made of.
func (l *ledger) probeSetup(w workload, in *inputs) (*layers, error) {
	lay := &layers{}
	var err error
	const reps = 3
	l.timeMS("grid.generate_ms", reps, func() { lay.g, err = grid.ByName(w.grid) })
	if err != nil {
		return nil, err
	}
	l.timeMS("stencil.assemble_ms", reps, func() {
		lay.op = stencil.Assemble(lay.g, stencil.PhiFromTimeStep(solveTau))
	})
	l.timeMS("decomp.new_ms", reps, func() { lay.d, err = decompose(lay.g, w.cores) })
	if err != nil {
		return nil, err
	}
	d := lay.d
	ocean := make([]*decomp.Block, len(d.OceanBlocks))
	for i, id := range d.OceanBlocks {
		ocean[i] = &d.Blocks[id]
	}
	sort.SliceStable(ocean, func(i, j int) bool { return ocean[i].NxI*ocean[i].NyI < ocean[j].NxI*ocean[j].NyI })
	lay.block = ocean[len(ocean)/2]
	l.set("decomp.ranks", float64(d.NRanks), "count")
	l.set("decomp.land_blocks_dropped", float64(len(d.Blocks)-len(d.OceanBlocks)), "count")
	l.set("decomp.block_pts_median", float64(lay.block.NxI*lay.block.NyI), "count")

	if lay.machine, err = perfmodel.ByName(machineName); err != nil {
		return nil, err
	}
	var world *comm.World
	l.timeMS("comm.new_world_ms", reps, func() { world, err = comm.NewWorld(d, lay.machine) })
	if err != nil {
		return nil, err
	}
	opts := core.Options{Precond: w.key.precond, Tol: solveTol}
	l.timeMS("core.new_session_ms", reps, func() {
		lay.sess, err = core.NewSession(lay.g, lay.op, d, world, opts)
	})
	if err != nil {
		return nil, err
	}
	// The first solve on a fresh session pays for the local operators, the
	// preconditioner factorisation and, for P-CSI, the Lanczos estimate.
	l.timeMS("core.first_solve_ms", 1, func() {
		_, _, err = lay.sess.SolveContext(context.Background(), w.key.method, in.ps[0].b, nil)
	})
	return lay, err
}

// probeSolve runs one more converged solve of problem 0 on the probe
// session and reads off everything one solve can tell: the exact iteration
// and message counts, allocations, and the three clocks side by side —
// wall, the virtual clock the priced event stream gives, and the paper's
// closed-form prediction for the same iteration count.
func (l *ledger) probeSolve(w workload, in *inputs, lay *layers, maxRes float64) error {
	return l.span("core.solve", func() error {
		var (
			res  core.Result
			x    []float64
			err  error
			wall time.Duration
		)
		objects, bytes := mallocs(func() {
			t0 := time.Now()
			res, x, err = lay.sess.SolveContext(context.Background(), w.key.method, in.ps[0].b, nil)
			wall = time.Since(t0)
		})
		if err != nil {
			return err
		}
		o := op{x: x, conv: res.Converged}
		if err := in.verify(make([]float64, len(x)), &o, in.ps[0].b, in.ps[0].xTrue); err != nil {
			return err
		}
		wallMS := float64(wall) / 1e6
		l.set("core.iters_per_solve", float64(res.Iterations), "count")
		l.set("core.eig_steps", float64(res.EigSteps), "count")
		l.set("core.ms_per_iter", wallMS/float64(res.Iterations), "ms")
		l.set("core.rel_true_residual_max", max(maxRes, o.trueRes), "ratio")
		l.set("core.allocs_per_solve", objects, "count")
		l.set("core.alloc_kb_per_solve", bytes/1024, "KB")
		l.set("comm.reductions_per_solve", float64(res.Stats.PerRank[0].Reductions), "count")
		l.set("comm.halo_msgs_per_solve", float64(res.Stats.Sum.HaloMsgs), "count")
		l.set("comm.halo_kb_per_solve", float64(res.Stats.Sum.HaloBytes)/1024, "KB")

		comp, halo, reduce := res.Stats.Breakdown()
		virtualMS := res.Stats.MaxClock * 1e3
		n2, p, k := float64(lay.g.N()), lay.d.NRanks, float64(res.Iterations)
		eq := map[solveKey]func(*perfmodel.Machine, float64, int, float64) float64{
			{pop.MethodChronGear, pop.PrecondDiagonal}: perfmodel.EqChronGearDiag,
			{pop.MethodChronGear, pop.PrecondEVP}:      perfmodel.EqChronGearEVP,
			{pop.MethodPCSI, pop.PrecondDiagonal}:      perfmodel.EqPCSIDiag,
			{pop.MethodPCSI, pop.PrecondEVP}:           perfmodel.EqPCSIEVP,
		}[w.key]
		predictedMS := eq(lay.machine, n2, p, k) * 1e3
		l.set("perfmodel.virtual_ms", virtualMS, "ms")
		l.set("perfmodel.virtual_comp_ms", comp.Mean*1e3, "ms")
		l.set("perfmodel.virtual_halo_ms", halo.Mean*1e3, "ms")
		l.set("perfmodel.virtual_reduce_ms", reduce.Mean*1e3, "ms")
		l.set("perfmodel.predicted_ms", predictedMS, "ms")
		l.set("perfmodel.predicted_over_virtual", predictedMS/virtualMS, "ratio")
		l.set("perfmodel.wall_over_virtual", wallMS/virtualMS, "ratio")
		return nil
	})
}

// Computed traffic of one nine-point apply per point: four coefficient
// arrays, x and y at 8 bytes each plus one mask byte; nine multiplies and
// eight adds. Computed from array sizes, so cache misses are not in it.
const (
	applyBytesPerPt = 6*8 + 1
	applyFlopsPerPt = 17
)

// probeKernels times the stencil and EVP kernels on the workload's grid
// and on its median block.
func (l *ledger) probeKernels(w workload, lay *layers) error {
	return l.span("kernels", func() error {
		n := lay.g.N()
		x, y := make([]float64, n), make([]float64, n)
		for k := range x {
			x[k] = float64(k%31) * 0.03125
		}
		ns := perCall(func() { lay.op.Apply(y, x) })
		l.set("stencil.apply_ns_per_pt", ns/float64(n), "ns")
		l.set("stencil.apply_gbps", applyBytesPerPt*float64(n)/ns, "GB/s")
		l.set("stencil.flops_per_byte", float64(applyFlopsPerPt)/applyBytesPerPt, "flop/B")

		loc := lay.d.LocalOperator(lay.op, lay.block)
		lx, ly := make([]float64, loc.NxP*loc.NyP), make([]float64, loc.NxP*loc.NyP)
		for k := range lx {
			lx[k] = float64(k%31) * 0.03125
		}
		pts := float64(loc.InteriorLen())
		l.set("stencil.local_apply_ns_per_pt", perCall(func() { loc.Apply(ly, lx) })/pts, "ns")
		var sink float64
		l.set("stencil.local_apply_dot_ns_per_pt", perCall(func() { sink += loc.ApplyAndMaskedDot(ly, lx) })/pts, "ns")

		// One EVP tile of the default size in the middle of the median
		// block, assembled the way the preconditioner assembles its tiles.
		// Tile side, fill depth and full nine-point marching are the
		// preconditioner's defaults (core.Options).
		const tile, fill, simplified = 8, 50, false
		b := lay.block
		tx := b.X0 + max(0, (b.NxI-tile)/2)
		ty := b.Y0 + max(0, (b.NyI-tile)/2)
		tnx, tny := min(tile, b.NxI), min(tile, b.NyI)
		win := stencil.AssembleWindowFilled(lay.g, lay.op.Phi, tx, ty, tnx, tny, fill)
		growth, err := evp.MarchGrowth(win, simplified)
		if err != nil {
			return err
		}
		var solver *evp.BlockSolver
		setupNS := perCall(func() { solver, err = evp.NewBlockSolver(win, simplified) })
		if err != nil {
			return err
		}
		ext := (tnx + 2) * (tny + 2)
		psi, sol := make([]float64, ext), make([]float64, ext)
		for k := range psi {
			psi[k] = float64(k%7) - 3
		}
		l.set("evp.march_growth", growth, "ratio")
		l.set("evp.setup_ms_per_block", setupNS/1e6, "ms")
		l.set("evp.block_solve_ns_per_pt", perCall(func() { solver.Solve(sol, psi) })/float64(tnx*tny), "ns")
		runtime.KeepAlive(sink)
		return nil
	})
}

// roundsPerRun is how many collectives one probe Run issues, so the cost of
// starting the ranks can be subtracted and the rest divided.
const roundsPerRun = 64

// probeComm times the communication runtime on the workload's
// decomposition with no solver in the way: an empty Run (spawning and
// joining every rank), then 64 halo exchanges and 64 all-reduces per Run.
func (l *ledger) probeComm(lay *layers) error {
	return l.span("comm", func() error {
		d := lay.d
		world, err := comm.NewWorld(d, lay.machine)
		if err != nil {
			return err
		}
		fields := make([][][]float64, d.NRanks)
		for rank, ids := range d.ByRank {
			for _, id := range ids {
				nxp, nyp := d.PaddedDims(&d.Blocks[id])
				fields[rank] = append(fields[rank], make([]float64, nxp*nyp))
			}
		}
		empty := func(*comm.Rank) {}
		halo := func(r *comm.Rank) {
			for i := 0; i < roundsPerRun; i++ {
				r.Exchange(fields[r.ID])
			}
		}
		reduce := func(r *comm.Rank) {
			vals := [3]float64{1, float64(r.ID), 0.5}
			for i := 0; i < roundsPerRun; i++ {
				r.AllReduce(vals[:])
			}
		}
		// Warm every path once: buffer pools and the shard scheduler are
		// built on first use.
		for _, prog := range []func(*comm.Rank){empty, halo, reduce} {
			world.Run(prog)
		}
		const reps = 5
		spawn := float64(medianOf(reps, func() { world.Run(empty) }))
		spawnObjs, _ := mallocs(func() { world.Run(empty) })
		round := func(prog func(*comm.Rank)) (us, allocs float64) {
			ns := float64(medianOf(reps, func() { world.Run(prog) }))
			objs, _ := mallocs(func() { world.Run(prog) })
			return (ns - spawn) / roundsPerRun / 1e3, (objs - spawnObjs) / roundsPerRun
		}
		l.set("comm.run_spawn_us", spawn/1e3, "us")
		haloUS, haloAllocs := round(halo)
		l.set("comm.halo_round_us", haloUS, "us")
		l.set("comm.halo_allocs_per_round", haloAllocs, "count")
		reduceUS, reduceAllocs := round(reduce)
		l.set("comm.allreduce_round_us", reduceUS, "us")
		l.set("comm.allreduce_allocs_per_round", reduceAllocs, "count")

		// Session scatter and gather: every ocean block of a global field
		// copied into its padded array and back.
		global, back := make([]float64, lay.g.N()), make([]float64, lay.g.N())
		sg := perCall(func() {
			for rank, ids := range d.ByRank {
				for i, id := range ids {
					b := &d.Blocks[id]
					d.ScatterInto(fields[rank][i], global, b)
					d.GatherInto(back, fields[rank][i], b)
				}
			}
		})
		l.set("decomp.scatter_gather_us", sg/1e3, "us")
		return nil
	})
}

// fixedIters is the iteration count of the fixed-length solves the share
// metrics are built from: long enough to swamp a solve's fixed cost, short
// enough to repeat.
const fixedIters = 60

// fixed60 returns the median wall time of a solve cut off at fixedIters
// iterations on the workload's grid with the given preconditioner, core
// count (0 = one rank owning the whole grid) and thread cap.
func fixed60(w workload, in *inputs, precond pop.Precond, cores, threads int) (float64, error) {
	spec := solverSpec(w)
	spec.Precond, spec.Cores, spec.Threads = precond, cores, threads
	// A tolerance no solve reaches, so every run does all its iterations.
	spec.Options = pop.SolverOptions{Tol: 1e-300, MaxIters: fixedIters}
	s, err := pop.NewSolver(in.g, spec)
	if err != nil {
		return 0, err
	}
	solve := func() {
		var res pop.Result
		res, _, err = s.Solve(in.ps[0].b, nil)
		if errors.Is(err, pop.ErrNotConverged) {
			err = nil
		}
		if err == nil && res.Iterations != fixedIters {
			err = fmt.Errorf("fixed-length solve ran %d iterations, want %d", res.Iterations, fixedIters)
		}
	}
	if solve(); err != nil { // untimed: set-up and eigenvalue estimate
		return 0, err
	}
	d := medianOf(3, solve)
	return float64(d) / 1e6, err
}

// probeFixed60 attributes the per-iteration cost of the workload's solver
// by differences between fixed-length solves that each change one thing:
// the preconditioner (against identity), the rank count (against one rank,
// both on one thread so parallelism does not confound it), and the thread
// count (one against GOMAXPROCS).
func (l *ledger) probeFixed60(w workload, in *inputs) error {
	return l.span("core.fixed60", func() error {
		threads := runtime.GOMAXPROCS(0)
		full, err := fixed60(w, in, w.key.precond, w.cores, 0)
		if err != nil {
			return err
		}
		bare, err := fixed60(w, in, pop.PrecondIdentity, w.cores, 0)
		if err != nil {
			return err
		}
		ranks1t, err := fixed60(w, in, w.key.precond, w.cores, 1)
		if err != nil {
			return err
		}
		one1t, err := fixed60(w, in, w.key.precond, 0, 1)
		if err != nil {
			return err
		}
		l.set("core.fixed60_ms", full, "ms")
		l.set("core.precond_ms_per_iter", (full-bare)/fixedIters, "ms")
		l.set("core.precond_share", (full-bare)/full, "ratio")
		l.set("core.rank_overhead_ms_per_iter", (ranks1t-one1t)/fixedIters, "ms")
		l.set("core.rank_overhead_share", (ranks1t-one1t)/ranks1t, "ratio")
		l.set("core.thread_scaling_eff", ranks1t/(float64(threads)*full), "ratio")
		return nil
	})
}
