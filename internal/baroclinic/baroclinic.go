// Package baroclinic provides the synthetic 3-D baroclinic workload that
// stands in for POP's baroclinic mode in the whole-model experiments
// (Figures 1, 8, 9 and 11 and Table 1 compare barotropic solver time
// against total POP time, ~90% of which is baroclinic at low core counts).
//
// The baroclinic mode is compute-dominated and scales nearly perfectly: per
// time step it sweeps every level of every column (momentum, tracers,
// equation of state, vertical mixing) and refreshes a handful of 3-D halos.
// This package reproduces that *cost signature* rather than the physics: a
// real level-sweep stencil kernel executes on each block (so memory is
// touched and the virtual clock advances through the same AddFlops path as
// the solver), the per-point flop charge is calibrated to POP's measured
// throughput, and the 3-D halo updates are aggregated multi-level
// exchanges exactly like POP's.
//
// Calibration: Figure 1 shows the 0.1° baroclinic mode taking ~90% of core
// run time at 470 cores where one simulated day costs ~600 s, i.e. ~63k
// flops per point per step at 500 steps/day over 8.64M points (42 levels ×
// ~1.5k flops) at 1 Gflop/s effective — the DefaultLevelFlops below.
package baroclinic

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/decomp"
)

// Defaults matching the calibration in the package comment.
const (
	DefaultNZ         = 42
	DefaultLevelFlops = 1500
	// DefaultExchanges is the number of aggregated 3-D halo updates per
	// step (u, v, T, S and two work fields in POP).
	DefaultExchanges = 6
	// execLevels is how many levels the kernel really executes; the
	// remaining levels are charged but not recomputed (running all 42
	// would make single-machine sweeps of 16,875 virtual ranks take hours
	// without changing any measured quantity).
	execLevels = 2
)

// Workload is a distributed synthetic baroclinic stepper.
type Workload struct {
	D  *decomp.Decomposition
	W  *comm.World
	NZ int
	// LevelFlops is the charged flop count per point per level.
	LevelFlops int64
	// Exchanges is the number of aggregated 3-D halo updates per step.
	Exchanges int

	// perRank[rank][level][blockIndex] is the padded array of one executed
	// level on one block.
	perRank [][][][]float64
	// multis[rank] is the NZ-level wrapper passed to ExchangeMulti, built
	// once alongside the rank's fields so stepping allocates nothing.
	multis [][][][]float64
}

// New builds a workload over an assigned decomposition and its world.
func New(d *decomp.Decomposition, w *comm.World, nz int) (*Workload, error) {
	if d.NRanks == 0 {
		return nil, fmt.Errorf("baroclinic: decomposition not assigned")
	}
	if nz <= 0 {
		nz = DefaultNZ
	}
	return &Workload{
		D: d, W: w, NZ: nz,
		LevelFlops: DefaultLevelFlops,
		Exchanges:  DefaultExchanges,
		perRank:    make([][][][]float64, d.NRanks),
		multis:     make([][][][]float64, d.NRanks),
	}, nil
}

// ensure builds the rank's executed-level fields on first use.
func (b *Workload) ensure(r *comm.Rank) [][][]float64 {
	if b.perRank[r.ID] != nil {
		return b.perRank[r.ID]
	}
	// One padded array per block per executed level, seeded with a smooth
	// ramp so the kernel has nontrivial data.
	flat := make([][]float64, execLevels*len(r.Blocks))
	for l := 0; l < execLevels; l++ {
		for i, blk := range r.Blocks {
			nxp, nyp := b.D.PaddedDims(blk)
			f := make([]float64, nxp*nyp)
			for k := range f {
				f[k] = float64((k+l*7)%13) * 0.1
			}
			flat[l*len(r.Blocks)+i] = f
		}
	}
	levels := chunk(flat, len(r.Blocks))
	b.perRank[r.ID] = levels
	// Aggregated 3-D wrapper: NZ levels cycling over the executed arrays —
	// bytes on the wire are what matters for the cost model.
	multi := make([][][]float64, b.NZ)
	for l := range multi {
		multi[l] = levels[l%execLevels]
	}
	b.multis[r.ID] = multi
	return levels
}

func chunk(flat [][]float64, per int) [][][]float64 {
	var out [][][]float64
	for i := 0; i < len(flat); i += per {
		out = append(out, flat[i:i+per])
	}
	return out
}

// Step runs one baroclinic step across all ranks and returns the stats: per
// shard, one pass running the level-sweep kernel and the flop charge for the
// full NZ levels on every rank, then the aggregated 3-D halo updates.
func (b *Workload) Step() comm.Stats {
	return b.W.RunShards(func(sh *comm.Shard) {
		multis := make([][][][]float64, len(sh.Ranks))
		for i, r := range sh.Each {
			b.sweep(r)
			multis[i] = b.multis[r.ID]
		}
		// Aggregated 3-D halo updates: each carries NZ levels of strips.
		for e := 0; e < b.Exchanges; e++ {
			sh.ExchangeMulti(multis)
		}
	})
}

// sweep is one rank's compute of a step: the level-sweep kernel on the
// executed levels and the charge for all NZ of them.
func (b *Workload) sweep(r *comm.Rank) {
	levels := b.ensure(r)
	var interior int64
	for i, blk := range r.Blocks {
		nxp, _ := b.D.PaddedDims(blk)
		interior += int64(blk.NxI * blk.NyI)
		// Real kernel work on the executed levels: a five-point smoothing
		// sweep per level (memory-realistic inner loop).
		for l := 0; l < execLevels; l++ {
			f := levels[l][i]
			for j := b.D.Halo; j < blk.NyI+b.D.Halo; j++ {
				base := j * nxp
				for ii := b.D.Halo; ii < blk.NxI+b.D.Halo; ii++ {
					k := base + ii
					f[k] = 0.2 * (f[k] + f[k-1] + f[k+1] + f[k-nxp] + f[k+nxp])
				}
			}
		}
	}
	// Charge the full-physics cost for all NZ levels.
	r.AddFlops(interior * int64(b.NZ) * b.LevelFlops)
}
