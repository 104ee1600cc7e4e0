package comm

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/grid"
)

// stressWorld builds a world of exactly nrank ranks: one 4×4 block per rank
// on a flat basin when nrank is a square (every interior rank has four
// cross-rank neighbours), otherwise 8×8 blocks of the test grid dealt to
// nrank multi-block ranks (which adds same-rank local edges).
func stressWorld(t *testing.T, nrank int) (*decomp.Decomposition, *World) {
	t.Helper()
	var d *decomp.Decomposition
	var err error
	if side := int(math.Round(math.Sqrt(float64(nrank)))); side*side == nrank && nrank > 4 {
		d, err = decomp.New(grid.NewFlatBasin(4*side, 4*side, 1000, 1e4, 1e4), 4, 4, decomp.DefaultHalo)
		if err == nil {
			d.AssignOnePerRank()
		}
	} else {
		d, err = decomp.New(grid.Generate(grid.TestSpec()), 8, 8, decomp.DefaultHalo)
		if err == nil {
			err = d.Assign(nrank)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(d, stressCost{})
	if err != nil {
		t.Fatal(err)
	}
	if w.NRank != nrank {
		t.Fatalf("built %d ranks, want %d", w.NRank, nrank)
	}
	return d, w
}

// stressCost prices every event differently per rank and sequence number so
// clocks are irregular floats and any reordering of a max or a sum shows.
type stressCost struct{}

func (stressCost) FlopTime(n int64, rank int, seq int64) float64 {
	return float64(n) * 1e-9 * (1 + float64((rank*7+int(seq)*3)%11)/13)
}
func (stressCost) P2PTime(bytes int64) float64 { return 1.7e-6 + float64(bytes)*0.31e-9 }
func (stressCost) ReduceTime(p int, seq int64) float64 {
	return 2.3e-6*math.Log2(float64(p)) + float64(seq%5)*1e-7
}

// stressWidths are the AllReduce payload widths a stress run cycles through
// (0 is a Barrier-shaped reduction).
var stressWidths = []int{0, 2, 5, 33}

// stressDeposit is rank's payload element i in a round: magnitudes spread
// over ~60 binades, so the sum depends on the association.
func stressDeposit(rank, round, i int) float64 {
	h := uint32(rank*2654435761) ^ uint32(round*40503) ^ uint32(i*2246822519)
	h ^= h >> 13
	return math.Ldexp(float64(h%2000003)-1e6, int(h>>7)%60-30)
}

// stressResult is everything a stress run is compared on.
type stressResult struct {
	reduced [][]float64 // [round] the values rank 0 received
	agree   bool        // every rank received the same values as rank 0
	sums    [][]float64 // [round][rank] the field checksum the rank deposited
	stats   Stats
}

// runStress loops Exchange (single-field and aggregated by turns) and
// AllReduce. Each round's last payload element is a checksum of the rank's
// freshly exchanged field, so a wrong or stale halo changes reduced values.
func runStress(d *decomp.Decomposition, w *World, rounds int) stressResult {
	res := stressResult{reduced: make([][]float64, rounds), agree: true, sums: make([][]float64, rounds)}
	for i := range res.sums {
		res.sums[i] = make([]float64, w.NRank)
	}
	disagree := make([]bool, w.NRank)
	res.stats = w.Run(func(r *Rank) {
		f64 := make([][]float64, len(r.Blocks))
		for i, b := range r.Blocks {
			nxp, nyp := d.PaddedDims(b)
			f64[i] = make([]float64, nxp*nyp)
		}
		levels := [][][]float64{f64, f64}
		for round := 0; round < rounds; round++ {
			r.AddFlops(int64(100 + (r.ID*31+round*17)%400))
			var sum float64
			for i, b := range r.Blocks {
				for k := range f64[i] {
					f64[i][k] = float64(b.ID*1000+k) + float64(round)*0.125
				}
			}
			if round%2 == 0 {
				r.Exchange(f64)
			} else {
				r.ExchangeMulti(levels)
			}
			for i := range r.Blocks {
				for k := range f64[i] {
					sum += f64[i][k]
				}
			}
			res.sums[round][r.ID] = sum
			n := stressWidths[round%len(stressWidths)]
			payload := make([]float64, n)
			for i := range payload {
				payload[i] = stressDeposit(r.ID, round, i)
			}
			if n > 0 {
				payload[n-1] = sum
			}
			got := r.AllReduce(payload)
			if r.ID == 0 {
				res.reduced[round] = append([]float64(nil), got...)
			}
			// Compare after every rank has the result in hand: the barrier
			// orders rank 0's copy before the others' reads.
			mine := append([]float64(nil), got...)
			r.Barrier()
			for i := range mine {
				if !sameBits(mine[i], res.reduced[round][i]) {
					disagree[r.ID] = true
				}
			}
		}
	})
	for _, bad := range disagree {
		res.agree = res.agree && !bad
	}
	return res
}

// treeSum evaluates the binomial reduction tree recursively, the way each
// MPI rank would: id absorbs the already-reduced subtrees of id+1, id+2, …
// below its own lowest set bit. Independent of the runtime's flat loop.
func treeSum(vals []float64, id int) float64 {
	acc := vals[id]
	for s := 1; (id == 0 || s < id&-id) && id+s < len(vals); s <<= 1 {
		acc += treeSum(vals, id+s)
	}
	return acc
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCounters(a, b Counters) bool {
	return a.Flops == b.Flops && a.HaloMsgs == b.HaloMsgs && a.HaloBytes == b.HaloBytes &&
		a.Reductions == b.Reductions && sameBits(a.TComp, b.TComp) &&
		sameBits(a.THalo, b.THalo) && sameBits(a.TReduce, b.TReduce)
}

// TestExecutorStress drives the coroutine executor across rank counts,
// worker counts (fewer than, equal to and beyond the ranks) and scheduler
// widths, and holds every configuration bitwise to the Threads=1 run and to
// a sequential evaluation of the reduction tree. Run it under -race.
func TestExecutorStress(t *testing.T) {
	const rounds = 12
	for _, nrank := range []int{2, 7, 64, 676} {
		if nrank == 676 && testing.Short() {
			continue
		}
		d, w := stressWorld(t, nrank)
		w.SetThreads(1)
		ref := runStress(d, w, rounds)
		if !ref.agree {
			t.Fatalf("nrank %d: ranks disagree on reduced values at Threads=1", nrank)
		}
		vals := make([]float64, nrank)
		for round, got := range ref.reduced {
			for i := range got {
				for rank := range vals {
					vals[rank] = stressDeposit(rank, round, i)
					if i == len(got)-1 {
						vals[rank] = ref.sums[round][rank]
					}
				}
				if want := treeSum(vals, 0); !sameBits(got[i], want) {
					t.Fatalf("nrank %d round %d element %d: reduced %x, sequential tree gives %x",
						nrank, round, i, got[i], want)
				}
			}
		}
		for _, procs := range []int{1, 2} {
			for _, threads := range []int{1, 2, 3, nrank, nrank + 5} {
				name := fmt.Sprintf("nrank%d/procs%d/threads%d", nrank, procs, threads)
				prev := runtime.GOMAXPROCS(procs)
				w.SetThreads(threads)
				got := runStress(d, w, rounds)
				runtime.GOMAXPROCS(prev)
				if !got.agree {
					t.Fatalf("%s: ranks disagree on reduced values", name)
				}
				for round := range ref.reduced {
					for i := range ref.reduced[round] {
						if !sameBits(got.reduced[round][i], ref.reduced[round][i]) {
							t.Fatalf("%s round %d element %d: %x, Threads=1 gave %x", name, round, i,
								got.reduced[round][i], ref.reduced[round][i])
						}
					}
				}
				if !sameBits(got.stats.MaxClock, ref.stats.MaxClock) {
					t.Fatalf("%s: MaxClock %v, Threads=1 gave %v", name, got.stats.MaxClock, ref.stats.MaxClock)
				}
				for rank := range ref.stats.PerRank {
					if !sameCounters(got.stats.PerRank[rank], ref.stats.PerRank[rank]) {
						t.Fatalf("%s rank %d: counters %+v, Threads=1 gave %+v", name, rank,
							got.stats.PerRank[rank], ref.stats.PerRank[rank])
					}
				}
			}
		}
	}
}

// runExpectingPanic runs program and returns the value Run panicked with on
// this goroutine, failing the test when Run neither panics nor returns
// within a second.
func runExpectingPanic(t *testing.T, w *World, program func(*Rank)) string {
	t.Helper()
	return expectPanic(t, func() { w.Run(program) })
}

// shardsExpectingPanic is runExpectingPanic for a shard program.
func shardsExpectingPanic(t *testing.T, w *World, program func(*Shard)) string {
	t.Helper()
	return expectPanic(t, func() { w.RunShards(program) })
}

// expectPanic returns the value run panicked with, failing the test when it
// neither panics nor returns within a second.
func expectPanic(t *testing.T, run func()) string {
	t.Helper()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		run()
	}()
	select {
	case p := <-got:
		if p == nil {
			t.Fatal("the run returned normally, want a panic")
		}
		return fmt.Sprint(p)
	case <-time.After(time.Second):
		t.Fatal("the run still blocked after 1s, want a fail-fast panic")
	}
	return ""
}

// TestLockstepViolationFailsFast: one rank skips an AllReduce, so every
// other rank waits for an arrival that never comes. Run must notice that
// nobody is left to publish and panic on its caller with the waiting sites —
// at every worker count, and leave the world usable.
func TestLockstepViolationFailsFast(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, nil)
	p := d.NRanks
	fields := make([][][]float64, p)
	for _, threads := range []int{1, 2, p} {
		w.SetThreads(threads)
		msg := runExpectingPanic(t, w, func(r *Rank) {
			if fields[r.ID] == nil {
				fields[r.ID] = fillLevels(d, r, nil, 1, 0)[0]
			}
			r.Exchange(fields[r.ID])
			r.AllReduce([]float64{1})
			if r.ID != 3 {
				r.AllReduce([]float64{2})
			}
		})
		want := fmt.Sprintf("rank 0: allreduce #1, %d/%d arrived", p-1, p)
		if !strings.Contains(msg, "stalled") || !strings.Contains(msg, want) {
			t.Fatalf("threads %d: diagnostic %q lacks %q", threads, msg, want)
		}
		// The aborted run left halo messages and a reduction half done; the
		// next run must start clean.
		st := w.Run(func(r *Rank) {
			r.Exchange(fields[r.ID])
			if got := r.AllReduce([]float64{1})[0]; got != float64(p) {
				panic("wrong sum after an aborted run")
			}
		})
		if st.Sum.Reductions != int64(p) {
			t.Fatalf("threads %d: %d reductions after an aborted run, want %d", threads, st.Sum.Reductions, p)
		}
	}
	// The shard-program row: shard 0 skips the second reduction, so the
	// others wait in it for ranks that never arrive.
	shardFields := func(sh *Shard) [][][]float64 {
		fs := make([][][]float64, len(sh.Ranks))
		for i, r := range sh.Ranks {
			if fields[r.ID] == nil {
				fields[r.ID] = fillLevels(d, r, nil, 1, 0)[0]
			}
			fs[i] = fields[r.ID]
		}
		return fs
	}
	payloads := func(sh *Shard, v float64) [][]float64 {
		vals := make([][]float64, len(sh.Ranks))
		for i := range vals {
			vals[i] = []float64{v}
		}
		return vals
	}
	want := regexp.MustCompile(fmt.Sprintf(`shard [1-9]\d*: allreduce #1, \d+/%d ranks arrived`, p))
	for _, threads := range []int{2, p} {
		w.SetThreads(threads)
		msg := shardsExpectingPanic(t, w, func(sh *Shard) {
			sh.Exchange(shardFields(sh))
			sh.AllReduce(payloads(sh, 1))
			if sh.ID != 0 {
				sh.AllReduce(payloads(sh, 2))
			}
		})
		if !strings.Contains(msg, "stalled") || !want.MatchString(msg) {
			t.Fatalf("shard program, threads %d: diagnostic %q lacks %q", threads, msg, want)
		}
		st := w.RunShards(func(sh *Shard) {
			sh.Exchange(shardFields(sh))
			if got := sh.AllReduce(payloads(sh, 1))[0]; got != float64(p) {
				panic("wrong sum after an aborted run")
			}
		})
		if st.Sum.Reductions != int64(p) {
			t.Fatalf("shard program, threads %d: %d reductions after an aborted run, want %d",
				threads, st.Sum.Reductions, p)
		}
	}
}

// TestHaloStallNamesEdge: a rank that leaves before a halo exchange strands
// its shard at the arrival count — and, when its neighbours run on other
// workers, strands their shards' last arrivers on the mailbox it never
// filled. The diagnostic names whichever it is.
func TestHaloStallNamesEdge(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, nil)
	p := d.NRanks
	for threads, want := range map[int]string{
		1: fmt.Sprintf(`rank 1: halo exchange #0, %d/%d of shard 0 arrived`, p-1, p),
		p: `rank (\d+): halo phase [01] edge [EWNS] seq 0 \(serving rank (\d+)\)`,
	} {
		w.SetThreads(threads)
		msg := runExpectingPanic(t, w, func(r *Rank) {
			if r.ID == 0 {
				return
			}
			r.Exchange(fillLevels(d, r, nil, 1, 0)[0])
		})
		m := regexp.MustCompile(want).FindStringSubmatch(msg)
		if !strings.Contains(msg, "stalled") || m == nil {
			t.Fatalf("threads %d: diagnostic %q lacks %q", threads, msg, want)
		}
		if len(m) == 3 && m[1] != m[2] {
			t.Fatalf("threads %d: one rank per worker, yet %q serves another rank", threads, m[0])
		}
	}
	// The shard-program row: shard 0 leaves before the exchange, so the
	// shard beside it waits on a seam mailbox shard 0 never fills.
	w.SetThreads(2)
	msg := shardsExpectingPanic(t, w, func(sh *Shard) {
		if sh.ID == 0 {
			return
		}
		fs := make([][][]float64, len(sh.Ranks))
		for i, r := range sh.Ranks {
			fs[i] = fillLevels(d, r, nil, 1, 0)[0]
		}
		sh.Exchange(fs)
	})
	want := regexp.MustCompile(`shard 1: halo phase [01] edge [EWNS] seq 0 \(serving rank \d+\)`)
	if !strings.Contains(msg, "stalled") || !want.MatchString(msg) {
		t.Fatalf("shard program: diagnostic %q lacks %q", msg, want)
	}
}

// TestRankPanicFailsFast: a rank panics between two exchanges, leaving its
// neighbours suspended mid-exchange. The other coroutines must be stopped, the
// workers released, and the panic re-raised on Run's caller with the rank
// and its stack — not on a stray goroutine, which would kill the process.
func TestRankPanicFailsFast(t *testing.T) {
	_, d, w := testWorld(t, 8, 8, nil)
	for _, threads := range []int{1, 2, d.NRanks} {
		w.SetThreads(threads)
		unwound := make([]bool, d.NRanks)
		msg := runExpectingPanic(t, w, func(r *Rank) {
			defer func() { unwound[r.ID] = true }()
			fields := fillLevels(d, r, nil, 1, 0)[0]
			r.Exchange(fields)
			r.Barrier() // every rank has started before one fails
			if r.ID == 5 {
				panic("boom")
			}
			r.Exchange(fields)
			r.Barrier()
		})
		for _, want := range []string{"rank 5 panicked: boom", "TestRankPanicFailsFast"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("threads %d: panic %q lacks %q", threads, msg, want)
			}
		}
		for rid, ok := range unwound {
			if !ok {
				t.Fatalf("threads %d: rank %d's deferred calls did not run", threads, rid)
			}
		}
	}
	// The shard-program row: rank 5's pass panics; the other shards, waiting
	// in the next collective, must unwind too.
	for _, threads := range []int{1, 2, d.NRanks} {
		w.SetThreads(threads)
		unwound := make([]bool, w.EffectiveThreads())
		msg := shardsExpectingPanic(t, w, func(sh *Shard) {
			defer func() { unwound[sh.ID] = true }()
			fs := make([][][]float64, len(sh.Ranks))
			vals := make([][]float64, len(sh.Ranks))
			for i, r := range sh.Each {
				fs[i] = fillLevels(d, r, nil, 1, 0)[0]
			}
			sh.Exchange(fs)
			sh.AllReduce(vals) // every shard has started before one fails
			for _, r := range sh.Each {
				if r.ID == 5 {
					panic("boom")
				}
			}
			sh.Exchange(fs)
			sh.AllReduce(vals)
		})
		for _, want := range []string{"rank 5 panicked: boom", "TestRankPanicFailsFast"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("shard program, threads %d: panic %q lacks %q", threads, msg, want)
			}
		}
		for id, ok := range unwound {
			if !ok {
				t.Fatalf("shard program, threads %d: shard %d's deferred calls did not run", threads, id)
			}
		}
	}
}
