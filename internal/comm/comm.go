// Package comm is the communication substrate that stands in for MPI: a
// virtual-rank runtime executing bulk-synchronous shard programs — one
// worker per hardware thread runs the per-rank passes of its contiguous
// shard of ranks as plain loops and performs each collective once for the
// whole shard — with halo exchange between decomposition blocks (a direct
// copy inside a shard, a mailbox across shards) and deterministic
// binomial-tree global reductions.
//
// Two properties matter for the reproduction:
//
//   - Numerics are bitwise deterministic. Global sums are combined in a
//     fixed binomial-tree association independent of rank scheduling,
//     so a solve at p ranks is reproducible run to run (and the reduction
//     pattern matches what the paper's MPI_Allreduce performs).
//
//   - Every rank carries a *virtual clock* advanced by a pluggable
//     CostModel (flop time θ, point-to-point latency α and inverse
//     bandwidth β, tree-reduction cost with optional contention noise).
//     The real algorithms run and real event counts are priced, which is
//     how this repo regenerates the paper's Yellowstone/Edison scaling
//     figures on a single machine (see DESIGN.md §2). A shard collective
//     still prices, counts and traces every rank of the shard separately,
//     in the arithmetic of a per-rank collective.
//
// Reductions synchronize virtual clocks exactly like MPI_Allreduce
// synchronizes real ones: the reduced payload carries the maximum entry
// clock, and every rank leaves the reduction at max + tree cost. Halo
// exchanges advance the receiver to max(own, sender) plus per-message
// latency/bandwidth charges.
//
// World.RunShards is the executor's entry point and every solve path uses
// it. World.Run, with Rank's own Exchange / AllReduce, is a coroutine
// adapter over the same workers for free-form rank programs (sched.go).
package comm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/obs"
)

// CostModel prices virtual time. Implementations live in perfmodel; the
// zero-cost FreeModel below is used when only numerics matter.
type CostModel interface {
	// FlopTime returns the time for rank to execute n floating-point
	// operations. seq is the rank's compute-phase sequence number; models
	// use (rank, seq) to draw deterministic OS-noise jitter, whose maximum
	// over ranks is what inflates reduction waits at scale (paper §5.2).
	FlopTime(n int64, rank int, seq int64) float64
	// P2PTime returns the time to deliver one point-to-point message of
	// the given payload size (α + β·bytes).
	P2PTime(bytes int64) float64
	// ReduceTime returns the tree cost of one p-rank allreduce (excluding
	// the wait for the slowest rank, which the runtime accounts directly);
	// seq is the global reduction sequence number, used to draw
	// deterministic network-contention noise.
	ReduceTime(p int, seq int64) float64
}

// FreeModel is a CostModel under which everything is instantaneous.
type FreeModel struct{}

// FlopTime implements CostModel: compute is free.
func (FreeModel) FlopTime(int64, int, int64) float64 { return 0 }

// P2PTime implements CostModel: messages are free.
func (FreeModel) P2PTime(int64) float64 { return 0 }

// ReduceTime implements CostModel: reductions are free.
func (FreeModel) ReduceTime(int, int64) float64 { return 0 }

// Counters accumulates per-rank event counts and virtual time per component,
// mirroring the POP timers the paper reports (computation, boundary
// updating, global reduction — §2.2).
type Counters struct {
	// Flops counts floating-point operations charged to the rank.
	Flops int64
	// HaloMsgs counts point-to-point halo messages sent.
	HaloMsgs int64
	// HaloBytes counts total halo payload bytes sent.
	HaloBytes int64
	// Reductions counts global reductions the rank took part in.
	Reductions int64

	TComp   float64 // virtual seconds in computation
	THalo   float64 // virtual seconds in boundary updates (incl. waits)
	TReduce float64 // virtual seconds in global reductions (incl. waits)
}

// Clock returns the rank's total virtual time.
func (c *Counters) Clock() float64 { return c.TComp + c.THalo + c.TReduce }

// Add accumulates other into c (used to aggregate ranks or phases).
func (c *Counters) Add(o Counters) {
	c.Flops += o.Flops
	c.HaloMsgs += o.HaloMsgs
	c.HaloBytes += o.HaloBytes
	c.Reductions += o.Reductions
	c.TComp += o.TComp
	c.THalo += o.THalo
	c.TReduce += o.TReduce
}

// World is a communicator over the ocean blocks of a decomposition.
type World struct {
	// D is the block decomposition the ranks operate on.
	D *decomp.Decomposition
	// Cost prices compute, messages and reductions in virtual time.
	Cost CostModel
	// NRank is the number of simulated ranks.
	NRank int

	// Tracer, when non-nil, receives per-phase span events (compute, halo
	// exchange, global reduction) with virtual-clock timestamps from every
	// rank. Nil (the default) disables tracing: each instrumentation site
	// then costs a single nil check and allocates nothing.
	Tracer *obs.Tracer

	// traceID is the request-scoped trace ID stamped onto every rank trace
	// at run entry (see SetTraceID).
	traceID uint64

	// threads is the worker knob (see SetThreads; 0 = the default) and
	// exs[p] the cached shard executor for p workers (sched.go).
	threads int
	exs     map[int]*executor

	// ranks is the rank table, built once: a run resets the per-run fields and
	// keeps ID, World and Blocks.
	ranks []*Rank

	// Steady-state workspaces, sized once from the decomposition so the
	// per-iteration communication paths allocate nothing (see halo.go and
	// reduce.go for the ownership protocols; the halo plans live on each
	// executor, since which edges need a mailbox depends on the worker
	// count):
	//
	//   blockPos[blockID] is the block's index within its owning rank's
	//   Blocks slice (−1 for unowned), replacing a linear scan per edge.
	//
	//   reducePart[rank] is the rank's reduction deposit and reduceRoot the
	//   pair of result buffers alternated by call parity, each left at the
	//   length its last reduction was folded at; reduceArrived counts the
	//   ranks deposited in the current reduction and reduceDone the
	//   reductions completed this run (see Shard.AllReduce).
	blockPos      []int
	reducePart    [][]float64
	reduceRoot    [2][]float64
	reduceArrived atomic.Int64
	reduceDone    atomic.Int64
}

// haloKey names a mailbox by the receiving block and the side it fills.
type haloKey struct{ dstBlock, side int }

// grow returns (*buf)[:n], reallocating only when the capacity is short —
// the steady-state path hits the reuse branch and allocates nothing.
// Allocations are padded to at least one cache line (8 float64s): these
// buffers persist per rank and are hammered concurrently, and two sub-line
// buffers of different ranks sharing a line would ping-pong it between
// cores on every reduction.
//
//pop:hotpath
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		c := n
		if c < 8 {
			c = 8
		}
		*buf = make([]float64, c)
	}
	return (*buf)[:n]
}

// Sides of a block, from the receiver's point of view.
const (
	SideE = iota
	SideW
	SideN
	SideS
)

// NewWorld builds a communicator for a decomposition whose blocks have
// already been assigned to ranks (Assign or AssignOnePerRank).
func NewWorld(d *decomp.Decomposition, cost CostModel) (*World, error) {
	if d.NRanks == 0 {
		return nil, fmt.Errorf("comm: decomposition has no rank assignment")
	}
	if cost == nil {
		cost = FreeModel{}
	}
	w := &World{D: d, Cost: cost, NRank: d.NRanks, exs: make(map[int]*executor)}
	w.reducePart = make([][]float64, w.NRank)
	w.blockPos = make([]int, len(d.Blocks))
	for i := range w.blockPos {
		w.blockPos[i] = -1
	}
	for _, ids := range d.ByRank {
		for pos, id := range ids {
			w.blockPos[id] = pos
		}
	}
	w.ranks = make([]*Rank, w.NRank)
	for rid, ids := range d.ByRank {
		blocks := make([]*decomp.Block, len(ids))
		for i, bid := range ids {
			blocks[i] = &d.Blocks[bid]
		}
		w.ranks[rid] = &Rank{ID: rid, World: w, Blocks: blocks}
	}
	return w, nil
}

// sideOffsets maps a receiving side to the block-grid offset of the sender.
var sideOffsets = [4][2]int{
	SideE: {1, 0},
	SideW: {-1, 0},
	SideN: {0, 1},
	SideS: {0, -1},
}

// Rank is the per-rank handle: a shard program reaches its ranks through
// Shard.Ranks and Shard.Each, a World.Run program receives one.
type Rank struct {
	// ID is the rank's index in [0, World.NRank).
	ID int
	// World is the communicator this rank belongs to.
	World *World
	// Blocks lists the rank's owned blocks, in ByRank order.
	Blocks []*decomp.Block

	ctr       Counters
	clock     float64
	reduceSeq int64
	flopSeq   int64
	// levels is what the rank passed to the halo exchange in flight, and
	// sendClock its clock at the current phase's sends: what a sibling of the
	// same shard copies and is charged from (halo.go).
	levels    [][][]float64
	sendClock float64
	// entry is the rank's clock entering the reduction in flight.
	entry float64
	trace *obs.RankTrace // nil when the World has no tracer

	// The shard and worker this rank runs on.
	shard int
	wk    *worker

	// World.Run adapter state (sched.go): the coroutine handles (nil once
	// the program has returned) and yield, and the collective the rank is
	// suspended at — its kind and arguments, then its result.
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	op     int
	vals   []float64
	out    []float64
	multis [][][]float64

	// multi is Exchange's scratch for wrapping a single field set as a
	// one-level call without allocating the wrapper.
	multi [1][][]float64
}

// Counters returns a snapshot of the rank's accumulated counters.
func (r *Rank) Counters() Counters { return r.ctr }

// Trace returns the rank's trace buffer, nil when tracing is disabled.
// Callers emitting solver-level events must nil-check (the hot-path
// contract: disabled tracing is one branch, zero allocations).
func (r *Rank) Trace() *obs.RankTrace { return r.trace }

// ResetCounters zeroes the counters and virtual clock — used between
// experiment phases (e.g. to time Lanczos setup apart from solves).
//
// It deliberately does NOT reset flopSeq or reduceSeq: cost models draw
// deterministic OS-noise and network-contention jitter from (rank, seq),
// and those noise streams must keep advancing across phases — resetting
// them would replay identical jitter in every phase, correlating the
// "random" noise between setup and solve and biasing the straggler
// statistics the paper's §5.2 analysis depends on.
func (r *Rank) ResetCounters() {
	r.ctr = Counters{}
	r.clock = 0
}

// Clock returns the rank's current virtual time.
func (r *Rank) Clock() float64 { return r.clock }

// AddFlops charges n floating-point operations of computation.
func (r *Rank) AddFlops(n int64) {
	r.ctr.Flops += n
	dt := r.World.Cost.FlopTime(n, r.ID, r.flopSeq)
	r.flopSeq++
	r.ctr.TComp += dt
	t0 := r.clock
	r.clock += dt
	if r.trace != nil {
		r.trace.Add(obs.Event{Name: obs.EvCompute, T0: t0, T1: r.clock,
			Value: float64(n), Iter: -1, Straggler: -1})
	}
}

// Stats is the aggregate result of one run (RunShards or Run).
type Stats struct {
	MaxClock float64    // completion time: slowest rank's virtual clock
	Sum      Counters   // counters summed over ranks
	PerRank  []Counters // per-rank snapshots
}

// MeanCounters returns the per-rank average of the summed counters. An
// empty Stats (no per-rank snapshots) yields the zero value rather than
// NaN times.
func (s *Stats) MeanCounters() Counters {
	n := float64(len(s.PerRank))
	if n == 0 {
		return Counters{}
	}
	c := s.Sum
	c.TComp /= n
	c.THalo /= n
	c.TReduce /= n
	return c
}

// PhaseStat summarizes one phase's virtual time across ranks.
type PhaseStat struct {
	// Min, Mean and Max are the extreme and average per-rank virtual
	// times for the phase.
	Min, Mean, Max float64
}

// Breakdown returns per-rank min/mean/max virtual time for the three POP
// timer phases the paper reports (§2.2): computation, boundary updating,
// and global reduction. An empty Stats yields zeros.
func (s *Stats) Breakdown() (comp, halo, reduce PhaseStat) {
	if len(s.PerRank) == 0 {
		return
	}
	stat := func(get func(*Counters) float64) PhaseStat {
		ps := PhaseStat{Min: get(&s.PerRank[0]), Max: get(&s.PerRank[0])}
		var sum float64
		for i := range s.PerRank {
			v := get(&s.PerRank[i])
			sum += v
			if v < ps.Min {
				ps.Min = v
			}
			if v > ps.Max {
				ps.Max = v
			}
		}
		ps.Mean = sum / float64(len(s.PerRank))
		return ps
	}
	comp = stat(func(c *Counters) float64 { return c.TComp })
	halo = stat(func(c *Counters) float64 { return c.THalo })
	reduce = stat(func(c *Counters) float64 { return c.TReduce })
	return
}

// SetTraceID sets the request-scoped trace ID for subsequent runs: each run
// stamps it onto every rank's trace buffer before the run's first event, so
// all rank-level spans of the run carry the ID of the serve request the run
// is working for (0 — the default — marks runs not tied to a request). The
// caller owning the world sets it between solves; it must not be called
// while a run is in flight.
func (w *World) SetTraceID(id uint64) { w.traceID = id }

// TraceID returns the world's current request-scoped trace ID.
func (w *World) TraceID() uint64 { return w.traceID }

// RunShards executes program once per worker shard, concurrently, and
// returns aggregated statistics. A shard program alternates per-rank passes
// (Shard.Each) with the Shard collectives, which every shard must call in
// the same order with the same payload widths and level counts, exactly as
// MPI requires of ranks; a violation that leaves shards waiting forever, or
// a panic in any shard's program, stops the run and panics on RunShards'
// caller with a diagnostic.
//
// Hardware mapping: one worker per thread, each over a contiguous shard of
// ranks (see sched.go). An explicit SetThreads n runs min(n, NRank)
// workers; by default the run claims the processors no other
// default-threaded run holds at its entry — all of them when it runs alone,
// at least one — and gives them back when it returns or panics. Solutions
// and virtual clocks are bitwise identical for every thread count.
func (w *World) RunShards(program func(*Shard)) Stats {
	p := w.EffectiveThreads()
	if w.threads <= 0 {
		p = claim(p)
		defer release(p)
	}
	ex := w.executor(p)
	for rid, rk := range w.ranks {
		shard := w.shardOf(rid, p)
		*rk = Rank{ID: rid, World: w, Blocks: rk.Blocks, shard: shard, wk: &ex.workers[shard]}
		if w.Tracer.Enabled() {
			rk.trace = w.Tracer.Rank(rid)
			rk.trace.SetTraceID(w.traceID)
			rk.trace.Add(obs.Event{Name: obs.EvRunBegin, Point: true,
				Value: float64(w.NRank), Aux: float64(rk.shard),
				Iter: -1, Straggler: -1})
		}
	}
	w.reduceArrived.Store(0)
	w.reduceDone.Store(0)
	ex.run(program)
	st := Stats{PerRank: make([]Counters, w.NRank)}
	for rid, rk := range w.ranks {
		st.PerRank[rid] = rk.ctr
		st.Sum.Add(rk.ctr)
		if rk.clock > st.MaxClock {
			st.MaxClock = rk.clock
		}
	}
	return st
}

// Run executes program on every rank and returns aggregated statistics: the
// coroutine adapter for free-form rank programs that call Rank's own
// collectives (AllReduce, Barrier, Exchange, ExchangeMulti), in the same
// order on every rank. Each rank is a coroutine on its shard's worker,
// suspended at every collective until the whole shard has arrived, which the
// worker then performs through the Shard API — so numerics, clocks, counters
// and traces are those of RunShards. A lockstep violation or a panic in a
// rank's program panics on Run's caller with a diagnostic naming the ranks. Solve paths are shard programs; this form
// serves the runtime's own tests and probes.
func (w *World) Run(program func(*Rank)) Stats {
	return w.RunShards(func(sh *Shard) { sh.coroutines(program) })
}
