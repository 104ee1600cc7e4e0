package comm

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/obs"
)

// exchangeFill is the value a rank writes into cell k of a block's level l
// before a round's exchange — halo cells included, so a strip that was not
// delivered is told from the neighbour's data it should have become.
func exchangeFill(blockID, l, k, round int) float64 {
	return float64(blockID*1000+k) + float64(l)*0.5 + float64(round)*0.125
}

// exchangeLevels is how many levels a round exchanges (ExchangeMulti on odd
// rounds).
func exchangeLevels(round int) int { return 1 + round%2 }

// referenceExchange is a sequential model of `rounds` halo updates: per
// phase every strip is read from a snapshot taken before the phase. It
// returns every rank's fields after each round.
func referenceExchange(d *decomp.Decomposition, rounds int) [][][][][]float64 {
	h := d.Halo
	pos := make(map[int]int) // block ID → index in its rank's block list
	for _, ids := range d.ByRank {
		for i, id := range ids {
			pos[id] = i
		}
	}
	out := make([][][][][]float64, rounds) // round → rank → level → block → cell
	for round := range out {
		nlv := exchangeLevels(round)
		cur := make([][][][]float64, d.NRanks)
		for rank, ids := range d.ByRank {
			cur[rank] = make([][][]float64, nlv)
			for l := range cur[rank] {
				for _, id := range ids {
					nxp, nyp := d.PaddedDims(&d.Blocks[id])
					f := make([]float64, nxp*nyp)
					for k := range f {
						f[k] = exchangeFill(id, l, k, round)
					}
					cur[rank][l] = append(cur[rank][l], f)
				}
			}
		}
		for phase := 0; phase < 2; phase++ {
			snap := make([][][][]float64, len(cur))
			for rank := range cur {
				snap[rank] = make([][][]float64, nlv)
				for l := range cur[rank] {
					for _, f := range cur[rank][l] {
						snap[rank][l] = append(snap[rank][l], append([]float64(nil), f...))
					}
				}
			}
			for rank, ids := range d.ByRank {
				for i, id := range ids {
					b := &d.Blocks[id]
					for _, side := range phaseSides[phase] {
						nb := d.NeighborID(b, sideOffsets[side][0], sideOffsets[side][1])
						if nb < 0 {
							continue
						}
						src := &d.Blocks[nb]
						for l := 0; l < nlv; l++ {
							copyStrip(cur[rank][l][i], b.NxI, b.NyI, snap[src.Rank][l][pos[nb]], src.NxI, src.NyI, h, side)
						}
					}
				}
			}
		}
		out[round] = cur
	}
	return out
}

// TestHaloExchangeAcrossThreads: halo phases land identically whether an
// edge is a direct copy (Threads = 1: all of them), a mailbox (Threads =
// NRank: all of them) or a mix — field bits equal to the sequential model,
// and per-rank counters, clocks and trace events equal across the three.
func TestHaloExchangeAcrossThreads(t *testing.T) {
	const rounds = 12
	type outcome struct {
		stats  Stats
		events []obs.Event
	}
	for _, nrank := range []int{7, 64} {
		d, _ := stressWorld(t, nrank)
		want := referenceExchange(d, rounds)
		var ref outcome
		for _, threads := range []int{1, 2, nrank} {
			name := fmt.Sprintf("nrank%d/threads%d", nrank, threads)
			d, w := stressWorld(t, nrank)
			w.SetThreads(threads)
			w.Tracer = obs.NewTracer(0)
			got := make([][][][][]float64, rounds)
			for round := range got {
				got[round] = make([][][][]float64, nrank)
			}
			st := w.Run(func(r *Rank) {
				for round := 0; round < rounds; round++ {
					r.AddFlops(int64(100 + (r.ID*31+round*17)%400))
					levels := make([][][]float64, exchangeLevels(round))
					for l := range levels {
						for _, b := range r.Blocks {
							nxp, nyp := d.PaddedDims(b)
							f := make([]float64, nxp*nyp)
							for k := range f {
								f[k] = exchangeFill(b.ID, l, k, round)
							}
							levels[l] = append(levels[l], f)
						}
					}
					if len(levels) == 1 {
						r.Exchange(levels[0])
					} else {
						r.ExchangeMulti(levels)
					}
					got[round][r.ID] = levels
					r.Barrier()
				}
			})
			for round := range want {
				for rank := range want[round] {
					for l := range want[round][rank] {
						for i, wf := range want[round][rank][l] {
							for k := range wf {
								if g := got[round][rank][l][i][k]; !sameBits(g, wf[k]) {
									t.Fatalf("%s round %d rank %d level %d block %d cell %d: %v, sequential model gives %v",
										name, round, rank, l, i, k, g, wf[k])
								}
							}
						}
					}
				}
			}
			out := outcome{stats: st}
			for _, e := range w.Tracer.Events() {
				if e.Name != obs.EvRunBegin { // carries the shard
					out.events = append(out.events, e)
				}
			}
			if threads == 1 {
				ref = out
				continue
			}
			if !sameBits(out.stats.MaxClock, ref.stats.MaxClock) {
				t.Fatalf("%s: MaxClock %v, Threads=1 gave %v", name, out.stats.MaxClock, ref.stats.MaxClock)
			}
			for rank := range ref.stats.PerRank {
				if !sameCounters(out.stats.PerRank[rank], ref.stats.PerRank[rank]) {
					t.Fatalf("%s rank %d: counters %+v, Threads=1 gave %+v", name, rank,
						out.stats.PerRank[rank], ref.stats.PerRank[rank])
				}
			}
			if len(out.events) != len(ref.events) {
				t.Fatalf("%s: %d trace events, Threads=1 recorded %d", name, len(out.events), len(ref.events))
			}
			for i, e := range ref.events {
				if out.events[i] != e {
					t.Fatalf("%s: trace event %d is %+v, Threads=1 recorded %+v", name, i, out.events[i], e)
				}
			}
		}
	}
}

// TestHaloClocksReadSenderEntry pins the virtual-clock rule of a phase by
// hand: three ranks in a row enter at clocks 10, 20, 30 and every strip
// costs 138 (fixedCost: latency 10 + 128 bytes), so a receiver leaves at
// max(own, senders' entry clocks) + 138 per strip. The middle rank leaves
// at 306; a runtime that served it first and then read its clock for the
// strip it sends east would put rank 2 at 444 instead of 168.
func TestHaloClocksReadSenderEntry(t *testing.T) {
	d, err := decomp.New(grid.NewFlatBasin(24, 8, 1000, 1e4, 1e4), 8, 8, decomp.DefaultHalo)
	if err != nil {
		t.Fatal(err)
	}
	d.AssignOnePerRank()
	w, err := NewWorld(d, fixedCost{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{20 + 138, 30 + 2*138, 30 + 138}
	for _, threads := range []int{1, 2, 3} {
		w.SetThreads(threads)
		st := w.Run(func(r *Rank) {
			r.AddFlops(int64(10 * (r.ID + 1)))
			r.Exchange([][]float64{make([]float64, 12*12)})
		})
		for rank, c := range st.PerRank {
			if c.Clock() != want[rank] || c.THalo != want[rank]-float64(10*(rank+1)) {
				t.Fatalf("threads %d rank %d: clock %v (halo %v), want %v", threads, rank, c.Clock(), c.THalo, want[rank])
			}
		}
	}
}

// TestExchangeMultiLevelCountMismatch: ranks of one exchange passing
// different numbers of levels is a caller bug the runtime names, whether the
// two ranks meet inside a shard or across a mailbox.
func TestExchangeMultiLevelCountMismatch(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, nil)
	for _, threads := range []int{1, d.NRanks} {
		w.SetThreads(threads)
		msg := runExpectingPanic(t, w, func(r *Rank) {
			nlv := 2
			if r.ID == 1 {
				nlv = 3
			}
			r.ExchangeMulti(fillLevels(d, r, nil, nlv, 0))
		})
		if !strings.Contains(msg, "level counts differ") || !strings.Contains(msg, "rank 1 passes 3") ||
			!strings.Contains(msg, "passes 2") {
			t.Fatalf("threads %d: panic %q does not name rank 1's 3 levels against a neighbour's 2", threads, msg)
		}
	}
}

// TestAllReduceWidthMismatch: ranks entering one reduction with payloads of
// different widths would otherwise return sums over misaligned deposits.
// Whichever rank folds, a rank whose width is not the folded one panics on
// Run's caller naming itself and both widths — at every worker count, after
// a matching reduction, and leaving the world usable for the next run.
func TestAllReduceWidthMismatch(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, nil)
	p := d.NRanks
	odd := fmt.Sprintf("rank %d passes 2 values, the reduction was folded at 1", p-1)
	rest := regexp.MustCompile(`rank \d+ passes 1 values, the reduction was folded at 2`)
	for _, threads := range []int{1, 2, p} {
		w.SetThreads(threads)
		msg := runExpectingPanic(t, w, func(r *Rank) {
			r.AllReduce([]float64{1})
			r.AllReduce(make([]float64, 1+r.ID/(p-1)))
		})
		if !strings.Contains(msg, "AllReduce widths differ") || !strings.Contains(msg, odd) && !rest.MatchString(msg) {
			t.Fatalf("threads %d: panic %q does not set rank %d's 2 values against the others' 1", threads, msg, p-1)
		}
		w.Run(func(r *Rank) {
			if got := r.AllReduce([]float64{1, 2})[1]; got != float64(2*p) {
				panic("wrong sum after an aborted run")
			}
		})
	}
}
