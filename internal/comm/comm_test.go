package comm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

func testWorld(t *testing.T, bx, by int, cost CostModel) (*grid.Grid, *decomp.Decomposition, *World) {
	t.Helper()
	g := grid.Generate(grid.TestSpec())
	d, err := decomp.New(g, bx, by, decomp.DefaultHalo)
	if err != nil {
		t.Fatal(err)
	}
	d.AssignOnePerRank()
	w, err := NewWorld(d, cost)
	if err != nil {
		t.Fatal(err)
	}
	return g, d, w
}

func TestNewWorldRequiresAssignment(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	d, _ := decomp.New(g, 8, 8, decomp.DefaultHalo)
	if _, err := NewWorld(d, nil); err == nil {
		t.Fatal("accepted unassigned decomposition")
	}
}

func TestAllReduceSum(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, nil)
	p := d.NRanks
	// Each rank contributes (rank+1, 2·rank); expect the closed-form sums.
	st := w.Run(func(r *Rank) {
		got := r.AllReduce([]float64{float64(r.ID + 1), float64(2 * r.ID)})
		wantA := float64(p*(p+1)) / 2
		wantB := float64(p * (p - 1))
		if got[0] != wantA || got[1] != wantB {
			panic("wrong allreduce result")
		}
	})
	if st.Sum.Reductions != int64(p) {
		t.Fatalf("reductions counted %d, want %d", st.Sum.Reductions, p)
	}
}

func TestAllReduceDeterministic(t *testing.T) {
	_, _, w := testWorld(t, 4, 4, nil)
	run := func() float64 {
		var out float64
		var mu sync.Mutex
		w.Run(func(r *Rank) {
			rng := rand.New(rand.NewSource(int64(r.ID)))
			v := r.AllReduce([]float64{rng.NormFloat64() * 1e8, rng.NormFloat64()})
			mu.Lock()
			out = v[0] + v[1]
			mu.Unlock()
		})
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("allreduce not bitwise deterministic: %v vs %v", a, b)
	}
}

func TestBarrierCompletes(t *testing.T) {
	_, _, w := testWorld(t, 8, 8, nil)
	done := make(chan struct{})
	go func() {
		w.Run(func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.Barrier()
			}
		})
		close(done)
	}()
	<-done
}

// fixedCost charges 1 time unit per flop, 1 per message byte + 10 latency,
// and 7 per reduction, with no jitter — for clock arithmetic tests.
type fixedCost struct{}

func (fixedCost) FlopTime(n int64, _ int, _ int64) float64 { return float64(n) }
func (fixedCost) P2PTime(bytes int64) float64              { return 10 + float64(bytes) }
func (fixedCost) ReduceTime(int, int64) float64            { return 7 }

func TestClockSynchronizationAtReduce(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, fixedCost{})
	p := d.NRanks
	st := w.Run(func(r *Rank) {
		r.AddFlops(int64(10 * (r.ID + 1))) // rank i computes 10(i+1) units
		r.AllReduce([]float64{1})
	})
	wantClock := float64(10*p) + 7 // slowest rank + reduce cost
	for rid, c := range st.PerRank {
		if got := c.Clock(); math.Abs(got-wantClock) > 1e-9 {
			t.Fatalf("rank %d clock %v, want %v", rid, got, wantClock)
		}
		wantComp := float64(10 * (rid + 1))
		if c.TComp != wantComp {
			t.Fatalf("rank %d TComp %v, want %v", rid, c.TComp, wantComp)
		}
		wantReduce := wantClock - wantComp
		if math.Abs(c.TReduce-wantReduce) > 1e-9 {
			t.Fatalf("rank %d TReduce %v, want %v", rid, c.TReduce, wantReduce)
		}
	}
	if st.MaxClock != wantClock {
		t.Fatalf("MaxClock %v, want %v", st.MaxClock, wantClock)
	}
}

func TestHaloExchangeFlatBasin(t *testing.T) {
	// On an all-ocean basin every interior block has all eight neighbours;
	// after one Exchange, halos must match a direct scatter of the global
	// field (including corner cells, which take the two-phase path).
	g := grid.NewFlatBasin(32, 24, 1000, 1e4, 1e4)
	d, err := decomp.New(g, 8, 8, decomp.DefaultHalo)
	if err != nil {
		t.Fatal(err)
	}
	d.AssignOnePerRank()
	w, err := NewWorld(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	global := make([]float64, g.N())
	for k := range global {
		global[k] = float64(k + 1)
	}
	// All direct copies, a shard seam through the middle, all mailboxes.
	for _, threads := range []int{1, 2, w.NRank} {
		w.SetThreads(threads)
		var mu sync.Mutex
		failures := 0
		w.Run(func(r *Rank) {
			fields := make([][]float64, len(r.Blocks))
			for i, b := range r.Blocks {
				// Interior only; halos start at zero.
				full := d.Scatter(global, b)
				f := make([]float64, len(full))
				nxp, nyp := d.PaddedDims(b)
				for j := d.Halo; j < nyp-d.Halo; j++ {
					for i2 := d.Halo; i2 < nxp-d.Halo; i2++ {
						f[j*nxp+i2] = full[j*nxp+i2]
					}
				}
				fields[i] = f
			}
			r.Exchange(fields)
			for i, b := range r.Blocks {
				want := d.Scatter(global, b)
				nxp, nyp := d.PaddedDims(b)
				for j := 0; j < nyp; j++ {
					gj := b.Y0 - d.Halo + j
					if gj < 0 || gj >= g.Ny {
						continue
					}
					for i2 := 0; i2 < nxp; i2++ {
						gi := b.X0 - d.Halo + i2
						if gi < 0 || gi >= g.Nx {
							continue
						}
						if fields[i][j*nxp+i2] != want[j*nxp+i2] {
							mu.Lock()
							failures++
							mu.Unlock()
							return
						}
					}
				}
			}
		})
		if failures > 0 {
			t.Fatalf("threads %d: %d ranks saw halo mismatches", threads, failures)
		}
	}
}

func TestHaloCounters(t *testing.T) {
	g := grid.NewFlatBasin(16, 16, 1000, 1e4, 1e4)
	d, _ := decomp.New(g, 8, 8, decomp.DefaultHalo)
	d.AssignOnePerRank() // 2×2 blocks, each with 2 edge neighbours
	w, _ := NewWorld(d, nil)
	st := w.Run(func(r *Rank) {
		nxp, nyp := d.PaddedDims(r.Blocks[0])
		fields := [][]float64{make([]float64, nxp*nyp)}
		r.Exchange(fields)
	})
	// Each block has an E or W neighbour and an N or S neighbour: 2 messages
	// received per block, 4 blocks → 8 messages.
	if st.Sum.HaloMsgs != 8 {
		t.Fatalf("halo messages %d, want 8", st.Sum.HaloMsgs)
	}
	// Charged at POP's width 2, whatever the layout copies: E/W strips are
	// 2 cols × 8 rows = 16 values, N/S strips 2 rows × 12 cols (8 + 2·2) =
	// 24 values. Per block 40 values = 320 bytes.
	if st.Sum.HaloBytes != 4*320 {
		t.Fatalf("halo bytes %d, want %d", st.Sum.HaloBytes, 4*320)
	}
}

func TestSingleRankNoMessages(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	d, _ := decomp.New(g, 16, 12, decomp.DefaultHalo)
	if err := d.Assign(1); err != nil {
		t.Fatal(err)
	}
	w, _ := NewWorld(d, nil)
	st := w.Run(func(r *Rank) {
		fields := make([][]float64, len(r.Blocks))
		for i, b := range r.Blocks {
			nxp, nyp := d.PaddedDims(b)
			fields[i] = make([]float64, nxp*nyp)
		}
		r.Exchange(fields)
		r.AllReduce([]float64{1})
	})
	if st.Sum.HaloMsgs != 0 || st.Sum.HaloBytes != 0 {
		t.Fatalf("single-rank run sent %d messages", st.Sum.HaloMsgs)
	}
}

// interior is block b's padded copy of global with the halo zeroed: what a
// rank holds before an exchange.
func interior(d *decomp.Decomposition, global []float64, b *decomp.Block) []float64 {
	full := d.Scatter(global, b)
	nxp, nyp := d.PaddedDims(b)
	f := make([]float64, len(full))
	for j := d.Halo; j < nyp-d.Halo; j++ {
		copy(f[j*nxp+d.Halo:(j+1)*nxp-d.Halo], full[j*nxp+d.Halo:(j+1)*nxp-d.Halo])
	}
	return f
}

// distributedApply computes y = A·x through the full distributed path:
// scatter, exchange, local apply, gather.
func distributedApply(d *decomp.Decomposition, w *World, op *stencil.Operator, x []float64) []float64 {
	y := make([]float64, op.Nx*op.Ny)
	copy(y, x) // land blocks are never touched; global Apply has y=x there
	w.Run(func(r *Rank) {
		locOps := make([]*stencil.Local, len(r.Blocks))
		xs := make([][]float64, len(r.Blocks))
		ys := make([][]float64, len(r.Blocks))
		for i, b := range r.Blocks {
			locOps[i] = d.LocalOperator(op, b)
			xs[i] = interior(d, x, b)
			ys[i] = make([]float64, len(xs[i]))
		}
		r.Exchange(xs)
		for i := range r.Blocks {
			locOps[i].Apply(ys[i], xs[i])
		}
		for i, b := range r.Blocks {
			d.GatherInto(y, ys[i], b)
		}
	})
	return y
}

func TestDistributedMatvecMatchesGlobal(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(1200))
	rng := rand.New(rand.NewSource(77))
	x := make([]float64, g.N())
	for k := range x {
		if g.Mask[k] {
			x[k] = rng.NormFloat64()
		}
	}
	want := make([]float64, g.N())
	op.Apply(want, x)

	for _, blocking := range [][2]int{{8, 8}, {16, 12}, {12, 10}} {
		d, err := decomp.New(g, blocking[0], blocking[1], decomp.DefaultHalo)
		if err != nil {
			t.Fatal(err)
		}
		d.AssignOnePerRank()
		w, _ := NewWorld(d, nil)
		got := distributedApply(d, w, op, x)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-12*(math.Abs(want[k])+1) {
				t.Fatalf("blocking %v: mismatch at %d: %v vs %v", blocking, k, got[k], want[k])
			}
		}
	}
}

func TestDistributedMatvecMultiBlockRanks(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(1200))
	rng := rand.New(rand.NewSource(78))
	x := make([]float64, g.N())
	for k := range x {
		if g.Mask[k] {
			x[k] = rng.NormFloat64()
		}
	}
	want := make([]float64, g.N())
	op.Apply(want, x)
	d, _ := decomp.New(g, 8, 8, decomp.DefaultHalo)
	for _, nr := range []int{1, 3, 7} {
		if err := d.Assign(nr); err != nil {
			t.Fatal(err)
		}
		w, _ := NewWorld(d, nil)
		got := distributedApply(d, w, op, x)
		for k := range want {
			if math.Abs(got[k]-want[k]) > 1e-12*(math.Abs(want[k])+1) {
				t.Fatalf("nranks %d: mismatch at %d", nr, k)
			}
		}
	}
}

func TestCountersAddAndClock(t *testing.T) {
	a := Counters{Flops: 1, HaloMsgs: 2, HaloBytes: 3, Reductions: 4, TComp: 1, THalo: 2, TReduce: 3}
	b := a
	a.Add(b)
	if a.Flops != 2 || a.HaloBytes != 6 || a.TReduce != 6 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.Clock() != 12 {
		t.Fatalf("Clock=%v", a.Clock())
	}
}

func TestExchangeMultiAggregates(t *testing.T) {
	g := grid.NewFlatBasin(16, 16, 1000, 1e4, 1e4)
	d, _ := decomp.New(g, 8, 8, decomp.DefaultHalo)
	d.AssignOnePerRank()
	w, _ := NewWorld(d, nil)
	const nz = 5
	st := exchangeGlobals(t, "flat", d, w, levelGlobals(g, nz))
	// Message count identical to a single-field exchange (aggregation!),
	// bytes nz× larger: 8 messages of 320·nz bytes (see TestHaloCounters).
	if st.Sum.HaloMsgs != 8 {
		t.Fatalf("aggregated exchange sent %d messages, want 8", st.Sum.HaloMsgs)
	}
	if st.Sum.HaloBytes != int64(4*320*nz) {
		t.Fatalf("aggregated exchange moved %d bytes, want %d", st.Sum.HaloBytes, 4*320*nz)
	}
}

// TestHaloChargeIsPOPWidth: the exchange copies the decomposition's ring,
// but the virtual clock charges POP's width-2 strips (popHalo), so the
// bytes and the clock do not follow the layout. On a grid with ragged edge
// blocks and eliminated land blocks, at halo 1 and 2, one and three levels,
// one block per rank and several, and threads 1, 2 and NRank: HaloBytes is
// Σ 8·levels·(2·NyI for E/W, 2·(NxI+4) for N/S) over the received
// cross-rank strips, computed from d.Blocks alone; ring 1 is filled
// (exchangeGlobals); and a rank's counters under fixedCost are the same at
// both halo widths.
func TestHaloChargeIsPOPWidth(t *testing.T) {
	g := grid.Generate(grid.TestSpec()) // 64×48
	const bx, by = 10, 7                // edge blocks 4 wide and 6 tall
	if g.Nx%bx == 0 || g.Ny%by == 0 {
		t.Fatalf("%d×%d blocks tile the %d×%d grid evenly", bx, by, g.Nx, g.Ny)
	}
	for _, assign := range []int{0, 5} { // 0: one block per rank
		for _, nlv := range []int{1, 3} {
			globals := levelGlobals(g, nlv)
			var counters [3][]Counters // threads index → per-rank counters at halo 1
			for _, halo := range []int{1, 2} {
				d, err := decomp.New(g, bx, by, halo)
				if err != nil {
					t.Fatal(err)
				}
				if assign == 0 {
					d.AssignOnePerRank()
				} else if err := d.Assign(assign); err != nil {
					t.Fatal(err)
				}
				if d.LandRatio() == 0 {
					t.Fatal("no land block: the grid no longer exercises eliminated neighbours")
				}
				var wantBytes, wantMsgs int64
				for _, id := range d.OceanBlocks {
					b := &d.Blocks[id]
					for side, off := range sideOffsets {
						nb := d.NeighborID(b, off[0], off[1])
						if nb < 0 || d.Blocks[nb].Rank == b.Rank {
							continue
						}
						words := 2 * b.NyI
						if side == SideN || side == SideS {
							words = 2 * (b.NxI + 4)
						}
						wantBytes += int64(8 * nlv * words)
						wantMsgs++
					}
				}
				for ti, threads := range []int{1, 2, d.NRanks} {
					name := fmt.Sprintf("ranks%d/levels%d/halo%d/threads%d", d.NRanks, nlv, halo, threads)
					w, err := NewWorld(d, fixedCost{})
					if err != nil {
						t.Fatal(err)
					}
					w.SetThreads(threads)
					st := exchangeGlobals(t, name, d, w, globals)
					if st.Sum.HaloBytes != wantBytes || st.Sum.HaloMsgs != wantMsgs {
						t.Fatalf("%s: %d messages of %d bytes, want %d of %d (POP's width-2 strips)",
							name, st.Sum.HaloMsgs, st.Sum.HaloBytes, wantMsgs, wantBytes)
					}
					if halo == 1 {
						counters[ti] = st.PerRank
						continue
					}
					for rank, c := range st.PerRank {
						if c != counters[ti][rank] {
							t.Fatalf("%s rank %d: counters %+v, halo 1 gave %+v", name, rank, c, counters[ti][rank])
						}
					}
				}
			}
		}
	}
}

// levelGlobals is nz global fields whose every cell is distinct and
// nonzero, so a halo cell the exchange left at zero shows.
func levelGlobals(g *grid.Grid, nz int) [][]float64 {
	globals := make([][]float64, nz)
	for l := range globals {
		globals[l] = make([]float64, g.N())
		for k := range globals[l] {
			globals[l][k] = float64(l*100000 + k + 1)
		}
	}
	return globals
}

// exchangeGlobals runs one halo update of len(globals) levels on w —
// Exchange for one, ExchangeMulti for several — from every block holding
// its interior of globals[l] and a zero halo, then checks every block's
// ring 1 (checkRingOne).
func exchangeGlobals(t *testing.T, name string, d *decomp.Decomposition, w *World, globals [][]float64) Stats {
	t.Helper()
	fields := make([][][][]float64, d.NRanks) // rank → level → block
	st := w.Run(func(r *Rank) {
		levels := make([][][]float64, len(globals))
		for l := range levels {
			for _, b := range r.Blocks {
				levels[l] = append(levels[l], interior(d, globals[l], b))
			}
		}
		if len(levels) == 1 {
			r.Exchange(levels[0])
		} else {
			r.ExchangeMulti(levels)
		}
		fields[r.ID] = levels
	})
	for rank, ids := range d.ByRank {
		for l, blocks := range fields[rank] {
			for bi, id := range ids {
				checkRingOne(t, name, d, &d.Blocks[id], blocks[bi], l, globals[l])
			}
		}
	}
	return st
}

// checkRingOne asserts that every in-domain cell of block b's first halo
// ring holds global's value when an ocean block owns it and the exchange
// can reach it, and stays zero when its owner was eliminated as land. A
// corner cell arrives in two hops, through the N/S neighbour's E/W halo,
// so with that neighbour eliminated it stays unreached — as in POP, and
// the nine-point coefficient coupling it is zero there (a dry U-point).
func checkRingOne(t *testing.T, name string, d *decomp.Decomposition, b *decomp.Block, f []float64,
	l int, global []float64) {
	t.Helper()
	h := d.Halo
	nxp, _ := d.PaddedDims(b)
	for dj := -1; dj <= b.NyI; dj++ {
		for di := -1; di <= b.NxI; di++ {
			ringI, ringJ := di < 0 || di == b.NxI, dj < 0 || dj == b.NyI
			if !ringI && !ringJ {
				continue
			}
			gi, gj := b.X0+di, b.Y0+dj
			if gi < 0 || gi >= d.Nx || gj < 0 || gj >= d.Ny {
				continue
			}
			ob := &d.Blocks[(gj/d.BlockNy)*d.MX+gi/d.BlockNx]
			if ringI && ringJ && d.NeighborID(b, 0, ob.BJ-b.BJ) < 0 {
				continue
			}
			want := global[gj*d.Nx+gi]
			if ob.Land {
				want = 0
			}
			if got := f[(dj+h)*nxp+di+h]; got != want {
				t.Fatalf("%s block %d level %d: ring-1 cell (%d,%d) = %v, want %v", name, b.ID, l, gi, gj, got, want)
			}
		}
	}
}

// MeanCounters on an empty Stats must return zeros, not NaN (division by a
// zero-length PerRank slice).
func TestMeanCountersEmptyStats(t *testing.T) {
	var st Stats
	m := st.MeanCounters()
	if math.IsNaN(m.TComp) || math.IsNaN(m.THalo) || math.IsNaN(m.TReduce) {
		t.Fatalf("empty stats produced NaN means: %+v", m)
	}
	if m != (Counters{}) {
		t.Fatalf("empty stats mean = %+v, want zero value", m)
	}
	comp, halo, reduce := st.Breakdown()
	if comp != (PhaseStat{}) || halo != (PhaseStat{}) || reduce != (PhaseStat{}) {
		t.Fatalf("empty stats breakdown nonzero: %v %v %v", comp, halo, reduce)
	}
}

// seqProbe records the sequence numbers the runtime hands the cost model,
// to pin ResetCounters' contract: counters and clock reset, but flopSeq and
// reduceSeq keep advancing (deterministic noise streams must not replay
// across phases).
type seqProbe struct {
	mu         sync.Mutex
	flopSeqs   []int64
	reduceSeqs []int64
}

func (p *seqProbe) FlopTime(n int64, _ int, seq int64) float64 {
	p.mu.Lock()
	p.flopSeqs = append(p.flopSeqs, seq)
	p.mu.Unlock()
	return 1
}
func (p *seqProbe) P2PTime(int64) float64 { return 0 }
func (p *seqProbe) ReduceTime(_ int, seq int64) float64 {
	p.mu.Lock()
	p.reduceSeqs = append(p.reduceSeqs, seq)
	p.mu.Unlock()
	return 1
}

func TestResetCountersPreservesNoiseSequences(t *testing.T) {
	g := grid.Generate(grid.TestSpec())
	d, err := decomp.New(g, g.Nx, g.Ny, decomp.DefaultHalo) // single rank
	if err != nil {
		t.Fatal(err)
	}
	d.AssignOnePerRank()
	probe := &seqProbe{}
	w, err := NewWorld(d, probe)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		r.AddFlops(1)
		r.AllReduce([]float64{1})
		r.ResetCounters()
		if c := r.Counters(); c != (Counters{}) || r.Clock() != 0 {
			panic("ResetCounters did not zero counters and clock")
		}
		r.AddFlops(1)
		r.AllReduce([]float64{1})
	})
	wantSeqs := []int64{0, 1}
	for i, got := range probe.flopSeqs {
		if got != wantSeqs[i] {
			t.Fatalf("flop seqs %v, want %v (flopSeq must advance across ResetCounters)",
				probe.flopSeqs, wantSeqs)
		}
	}
	for i, got := range probe.reduceSeqs {
		if got != wantSeqs[i] {
			t.Fatalf("reduce seqs %v, want %v (reduceSeq must advance across ResetCounters)",
				probe.reduceSeqs, wantSeqs)
		}
	}
	if len(probe.flopSeqs) != 2 || len(probe.reduceSeqs) != 2 {
		t.Fatalf("expected 2 flop and 2 reduce charges, got %d and %d",
			len(probe.flopSeqs), len(probe.reduceSeqs))
	}
}

// skewCost makes rank skew deterministic: rank r's flops cost r time units,
// so the highest rank is always the reduction straggler.
type skewCost struct{}

func (skewCost) FlopTime(n int64, rank int, _ int64) float64 { return float64(rank) }
func (skewCost) P2PTime(int64) float64                       { return 0 }
func (skewCost) ReduceTime(int, int64) float64               { return 1 }

func TestReduceStragglerAttribution(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, skewCost{})
	p := d.NRanks
	if p < 2 {
		t.Skip("needs multiple ranks")
	}
	tr := obs.NewTracer(64)
	w.Tracer = tr
	w.Run(func(r *Rank) {
		r.AddFlops(1) // rank r's clock is now r
		r.AllReduce([]float64{1})
	})
	slowest := p - 1
	for _, e := range tr.Events() {
		if e.Name != obs.EvReduce {
			continue
		}
		if e.Straggler != slowest {
			t.Fatalf("rank %d saw straggler %d, want %d", e.Rank, e.Straggler, slowest)
		}
		wantWait := float64(slowest - e.Rank)
		if math.Abs(e.Wait-wantWait) > 1e-12 {
			t.Fatalf("rank %d wait %g, want %g", e.Rank, e.Wait, wantWait)
		}
	}
}

func TestBreakdownMatchesCounters(t *testing.T) {
	_, _, w := testWorld(t, 8, 8, fixedCost{})
	st := w.Run(func(r *Rank) {
		r.AddFlops(int64(r.ID + 1))
		r.AllReduce([]float64{1})
	})
	comp, _, reduce := st.Breakdown()
	if comp.Min != 1 || comp.Max != float64(len(st.PerRank)) {
		t.Fatalf("comp breakdown %+v", comp)
	}
	if reduce.Max <= 0 {
		t.Fatalf("reduce breakdown %+v", reduce)
	}
	var sum float64
	for _, c := range st.PerRank {
		sum += c.TComp
	}
	if want := sum / float64(len(st.PerRank)); math.Abs(comp.Mean-want) > 1e-12 {
		t.Fatalf("comp mean %g, want %g", comp.Mean, want)
	}
}
