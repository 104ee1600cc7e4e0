package comm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/decomp"
)

// heldProbe prices like stressCost and records the most workers
// default-threaded runs held at any compute charge — every rank of a run
// is charged while its run holds its workers.
type heldProbe struct {
	stressCost
	peak *atomic.Int64
}

func (c heldProbe) FlopTime(n int64, rank int, seq int64) float64 {
	for h := held.Load(); ; h = held.Load() {
		if p := c.peak.Load(); h <= p || c.peak.CompareAndSwap(p, h) {
			break
		}
	}
	return c.stressCost.FlopTime(n, rank, seq)
}

// runWorkers is the worker count w's last run used.
func runWorkers(w *World) int { return w.ranks[w.NRank-1].Shard() + 1 }

// TestConcurrentRunsShareProcessors: k goroutines run default-threaded
// programs on worlds of their own at once, beside one run with an explicit
// Threads. A default run claims the processors no other default run holds,
// at least one, so together they hold at most GOMAXPROCS plus one worker
// for each run that found every processor held: GOMAXPROCS + k − 1. The
// explicit run keeps its count; a panicking run gives its workers back;
// and every run's reduced values, clocks and counters are bitwise those of
// the same run made alone. verify.sh runs it under -race at GOMAXPROCS 1
// and 2, where a lost release shows as a count left held and a double
// claim as a peak past the bound.
func TestConcurrentRunsShareProcessors(t *testing.T) {
	if h := held.Load(); h != 0 {
		t.Fatalf("%d workers held before any run", h)
	}
	procs := runtime.GOMAXPROCS(0)
	// The claim on its own: every idle processor, then one worker.
	if got := claim(procs + 3); got != procs {
		t.Fatalf("claim on an idle machine took %d workers, want GOMAXPROCS = %d", got, procs)
	}
	if got := claim(2); got != 1 {
		t.Fatalf("claim with every processor held took %d workers, want 1", got)
	}
	release(1)
	release(procs)

	const rounds, repeats, explicit = 6, 4, 3
	for _, k := range []int{2, procs + 1} {
		type job struct {
			d       *decomp.Decomposition
			w       *World
			alone   stressResult
			workers int // the workers the run must use; 0 = the default's share
		}
		var peak atomic.Int64
		jobs := make([]job, k+1) // k default runs, then the explicit one
		for i := range jobs {
			d, w := stressWorld(t, []int{7, 64}[i%2])
			j := &jobs[i]
			j.d, j.w = d, w
			if i == k {
				w.SetThreads(explicit)
				j.workers = explicit
			}
			j.alone = runStress(d, w, rounds)
			if j.workers == 0 && runWorkers(w) != w.EffectiveThreads() {
				t.Fatalf("k=%d: a default run alone used %d workers, want %d", k, runWorkers(w), w.EffectiveThreads())
			}
			w.Cost = heldProbe{peak: &peak}
		}
		fails := make(chan string, 2*len(jobs)*repeats) // at most two per run: bits, then workers
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func(j *job) {
				defer wg.Done()
				for rep := range repeats {
					got := runStress(j.d, j.w, rounds)
					name := fmt.Sprintf("k=%d world %d run %d", k, i, rep)
					if diff := stressDiff(got, j.alone); diff != "" {
						fails <- fmt.Sprintf("%s: %s, against the run made alone", name, diff)
					}
					n := runWorkers(j.w)
					switch {
					case j.workers > 0 && n != j.workers:
						fails <- fmt.Sprintf("%s: explicit Threads %d ran %d workers", name, j.workers, n)
					case n < 1 || n > j.w.EffectiveThreads():
						fails <- fmt.Sprintf("%s: ran %d workers, want 1..%d", name, n, j.w.EffectiveThreads())
					}
				}
			}(&jobs[i])
		}
		wg.Wait()
		close(fails)
		for f := range fails {
			t.Error(f)
		}
		if p := peak.Load(); p < 1 || p > int64(procs+k-1) {
			t.Errorf("k=%d: default runs held %d workers at once, want 1..%d", k, p, procs+k-1)
		}
		if h := held.Load(); h != 0 {
			t.Fatalf("k=%d: %d workers still held after every run returned", k, h)
		}
	}

	// A run that panics gives its workers back.
	_, w := stressWorld(t, 64)
	shardsExpectingPanic(t, w, func(sh *Shard) { panic("boom") })
	if h := held.Load(); h != 0 {
		t.Fatalf("%d workers still held after a panicking run", h)
	}
}
