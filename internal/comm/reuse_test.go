package comm

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// fillLevels builds (or refills) per-rank per-level padded fields with a
// value that encodes (seed, level, block, cell) so any stale strip from an
// earlier exchange is distinguishable from the correct fresh one.
func fillLevels(d *decomp.Decomposition, r *Rank, dst [][][]float64, nlv, seed int) [][][]float64 {
	if dst == nil {
		dst = make([][][]float64, nlv)
		for l := range dst {
			dst[l] = make([][]float64, len(r.Blocks))
			for i, b := range r.Blocks {
				nxp, nyp := d.PaddedDims(b)
				dst[l][i] = make([]float64, nxp*nyp)
			}
		}
	}
	for l := range dst {
		for i, b := range r.Blocks {
			f := dst[l][i]
			for k := range f {
				f[k] = float64(seed)*1e6 + float64(l)*1e4 + float64(b.ID)*1e2 + float64(k)*1e-3
			}
		}
	}
	return dst
}

// TestExchangeMultiBufferReuse runs consecutive ExchangeMulti calls with
// different field values (and different level counts, exercising pooled
// buffer growth) on one World and asserts every call's result matches a
// fresh single-use World given the same inputs — i.e. no stale data leaks
// from the reused strip buffers.
func TestExchangeMultiBufferReuse(t *testing.T) {
	g := grid.NewFlatBasin(32, 24, 1000, 1e4, 1e4)
	build := func() (*decomp.Decomposition, *World) {
		d, err := decomp.New(g, 8, 8, decomp.DefaultHalo)
		if err != nil {
			t.Fatal(err)
		}
		d.AssignOnePerRank()
		w, err := NewWorld(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d, w
	}

	// calls[c] is (level count, value seed) of the c-th exchange.
	calls := []struct{ nlv, seed int }{{1, 1}, {3, 2}, {2, 3}, {3, 4}}

	d, w := build()
	got := make([][][][][]float64, len(calls)) // call → rank → levels
	for c := range got {
		got[c] = make([][][][]float64, w.NRank)
	}
	w.Run(func(r *Rank) {
		var levels [][][]float64
		for c, call := range calls {
			levels = fillLevels(d, r, nil, call.nlv, call.seed)
			r.ExchangeMulti(levels)
			got[c][r.ID] = levels
		}
	})

	for c, call := range calls {
		dRef, wRef := build()
		want := make([][][][]float64, wRef.NRank)
		wRef.Run(func(r *Rank) {
			levels := fillLevels(dRef, r, nil, call.nlv, call.seed)
			r.ExchangeMulti(levels)
			want[r.ID] = levels
		})
		for rid, wl := range want {
			gl := got[c][rid]
			for l := range wl {
				for i := range wl[l] {
					for k := range wl[l][i] {
						if gl[l][i][k] != wl[l][i][k] {
							t.Fatalf("call %d rank %d level %d block %d cell %d: got %g want %g (stale reused buffer?)",
								c, rid, l, i, k, gl[l][i][k], wl[l][i][k])
						}
					}
				}
			}
		}
	}
}

// TestSteadyStateCommAllocFree asserts the per-iteration communication
// paths — Exchange, ExchangeMulti and AllReduce — allocate
// nothing once warm, at every worker count (one worker, several ranks per
// worker, one rank per worker). Setup costs (Run's coroutines, first-use
// buffer growth) are isolated by differencing a 1-iteration run against a
// many-iteration run.
func TestSteadyStateCommAllocFree(t *testing.T) {
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

	fields := make([][][]float64, w.NRank)
	multi := make([][][][]float64, w.NRank)
	w.Run(func(r *Rank) {
		fs := fillLevels(d, r, nil, 3, 0)
		fields[r.ID] = fs[0]
		multi[r.ID] = fs
	})

	run := func(iters int) func() {
		return func() {
			w.Run(func(r *Rank) {
				payload := make([]float64, 2)
				for it := 0; it < iters; it++ {
					r.Exchange(fields[r.ID])
					r.ExchangeMulti(multi[r.ID])
					payload[0], payload[1] = float64(r.ID), 1
					r.AllReduce(payload)
				}
			})
		}
	}
	for _, threads := range []int{1, 2, 3, w.NRank} {
		w.SetThreads(threads)
		run(1)() // warm every mailbox slot and the executor for this count

		base := testing.AllocsPerRun(5, run(1))
		long := testing.AllocsPerRun(5, run(41))
		if perIter := (long - base) / 40; perIter > 0 {
			t.Fatalf("threads %d: steady-state comm allocates %.2f allocs/iteration (run(1)=%v run(41)=%v), want 0",
				threads, perIter, base, long)
		}
	}
}
