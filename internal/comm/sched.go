package comm

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
)

// Coroutine executor: how virtual ranks get onto real hardware.
//
// A rank is a coroutine, not a scheduled goroutine. World.Run splits the
// ranks into P contiguous shards (P = the Threads knob, default GOMAXPROCS)
// and runs one worker goroutine per shard; the worker wraps each of its
// ranks' programs in iter.Pull and resumes them round-robin. Contiguity
// matters — ByRank assigns neighbouring blocks to neighbouring ranks, so a
// shard's working set is a connected patch of the grid and each core keeps
// temporal locality over one patch instead of the whole domain.
//
// Every blocking point of a collective is "check an atomic flag, else
// yield" (Rank.await): the reduction's done sequence number, the shard's
// halo-exchange done number, and — for the one rank per shard that runs the
// exchange — the sent/consumed counters of the mailboxes on the shard's seams
// (reduce.go, halo.go). A coroutine switch
// costs tens of nanoseconds and involves neither the Go scheduler nor a
// lock, which is what makes hundreds of ranks on a handful of cores cheap
// (history: ranks used to be goroutines wired by per-edge and per-rank
// channels and serialized by one run token per shard; at 676 ranks that
// runtime was ~80% of a ChronGear solve's wall clock).
//
// Liveness. A rank yields only on a false flag, and round-robin resumes
// every live rank of the shard, so a flag published by a sibling is seen on
// the next pass. A worker whose every live rank yielded without progress is
// waiting on another shard: it spins a bounded number of passes
// (runtime.Gosched between them), then announces itself asleep, rechecks
// once, and parks on its condition variable. Whoever publishes a flag checks
// the sleeping mark of the worker that may be waiting on it (the edge peer's
// worker; every worker for the reduction; nobody for a shard's own halo-done
// number, which only its own thread reads) and wakes it — announce-then-
// recheck against publish-then-check closes the lost-wake-up window. Mutex
// critical sections in rank programs (e.g. error recording in Setup) contain
// no collective calls, so a running rank never blocks on a lock held by a
// suspended sibling.
//
// Failure. With no parked goroutines the Go runtime's "all goroutines are
// asleep" detector no longer sees a lockstep violation, so the executor
// keeps its own count: when every worker is parked or finished and at least
// one is parked, nothing can ever be published again and Run panics on its
// caller with each waiting rank's site. A panic inside a rank program is
// caught by its worker, the remaining coroutines are stopped (their pending
// yield returns false and unwinds them), the other workers are released,
// and Run re-panics on its caller.
//
// Determinism is untouched by construction: the executor decides *when* a
// rank runs, never *what* it computes or is charged, so fp64 solutions and
// golden traces are bitwise identical across any Threads setting.

// spinPasses bounds the fruitless round-robin passes a worker makes before
// parking. A pass count, not a duration: comm must stay free of wall clocks.
const spinPasses = 4096

// errStopped unwinds a rank whose Run is being aborted (see Rank.await).
var errStopped = errors.New("comm: run aborted")

// Wait-site kinds recorded for the stall diagnostic.
const (
	waitReduce   = iota
	waitHalo     // the shard's exchange to be run by its last arriver
	waitHaloSend // last arriver: a free mailbox slot
	waitHaloRecv // last arriver: a mailbox message
)

// waitSite names the flag a suspended rank is waiting on (with Rank.min); a
// mailbox wait also names the edge and the rank whose strip it carries.
type waitSite struct{ kind, phase, side, serving int }

// worker drives one shard's ranks. sleeping is the lock-free mark publishers
// test; parked (under executor.mu) counts the worker into executor.asleep.
// haloArrived counts the ranks waiting in the current halo exchange — a plain
// int, only this worker's thread runs them — and haloDone the exchanges the
// shard has completed this Run (halo.go).
type worker struct {
	ex          *executor
	ranks       []*Rank
	sleeping    atomic.Bool
	parked      bool
	cond        sync.Cond
	haloArrived int
	haloDone    atomic.Int64
}

// executor is one World's set of workers, cached across Runs and rebuilt
// only when the effective thread count changes.
type executor struct {
	w       *World
	workers []worker
	wg      sync.WaitGroup
	aborted atomic.Bool

	mu       sync.Mutex
	asleep   int // workers parked with no wake-up pending
	finished int // workers whose ranks all returned (or were stopped)
	failure  any // first rank panic or stall diagnostic of the run
}

// SetThreads sets the worker count for subsequent Runs: at most n virtual
// ranks execute concurrently. n ≤ 0 restores the default (GOMAXPROCS at Run
// entry); values above NRank are clamped to one rank per worker. Must not be
// called while a Run is in flight. Solutions are bitwise identical across
// all settings; only wall-clock and cache behavior change.
func (w *World) SetThreads(n int) { w.threads = n }

// Threads returns the configured worker knob (0 = auto/GOMAXPROCS).
func (w *World) Threads() int { return w.threads }

// EffectiveThreads resolves the knob against the machine and the rank
// count: the worker count the next Run will actually use (Threads, defaulted
// to GOMAXPROCS, clamped to [1, NRank]).
func (w *World) EffectiveThreads() int {
	p := w.threads
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > w.NRank {
		p = w.NRank
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Shard returns the worker shard this rank executes on: rank·P/NRank for P
// effective threads.
func (r *Rank) Shard() int { return r.shard }

// shardOf is the worker shard rank rid runs on when there are p workers:
// contiguous runs of ranks, shard s owning [s·NRank/p, (s+1)·NRank/p).
func (w *World) shardOf(rid, p int) int { return rid * p / w.NRank }

// executor returns the cached executor for p workers. Building one decides
// which halo edges are direct copies and which are mailboxes (two ranks on
// one worker or not), so the exchange plans are built with it.
func (w *World) executor(p int) *executor {
	if w.ex != nil && len(w.ex.workers) == p {
		return w.ex
	}
	ex := &executor{w: w, workers: make([]worker, p)}
	lo := 0
	for s := range ex.workers {
		hi := lo
		for hi < w.NRank && w.shardOf(hi, p) == s {
			hi++
		}
		wk := &ex.workers[s]
		wk.ex, wk.ranks, wk.cond.L = ex, w.ranks[lo:hi], &ex.mu
		lo = hi
	}
	w.ex, w.plans = ex, buildPlans(w, p)
	return ex
}

// run executes program on every rank: worker 0 on the caller's goroutine,
// the rest on their own. A recorded failure is re-raised on the caller after
// every worker has stopped its coroutines and returned.
func (ex *executor) run(program func(*Rank)) {
	ex.asleep, ex.finished, ex.failure = 0, 0, nil
	ex.aborted.Store(false)
	ex.wg.Add(len(ex.workers))
	for i := 1; i < len(ex.workers); i++ {
		go ex.workers[i].run(program)
	}
	ex.workers[0].run(program)
	ex.wg.Wait()
	if ex.failure != nil {
		// Only a run that completes leaves the mailboxes balanced.
		ex.w.plans = buildPlans(ex.w, len(ex.workers))
		panic(ex.failure)
	}
}

// run is the worker loop: start the shard's coroutines, resume them
// round-robin until all have returned, spin-then-park when a whole pass made
// no progress.
func (wk *worker) run(program func(*Rank)) {
	ex := wk.ex
	defer ex.wg.Done()
	defer wk.finish()
	for _, rk := range wk.ranks {
		rk.start(program)
	}
	live, idle := len(wk.ranks), 0
	for live > 0 && !ex.aborted.Load() {
		progress := false
		for _, rk := range wk.ranks {
			if rk.next == nil || rk.flag.Load() < rk.min {
				continue
			}
			progress = true
			if _, ok := rk.next(); !ok {
				rk.next, rk.stop, rk.yield = nil, nil, nil
				live--
			}
		}
		switch {
		case progress:
			idle = 0
			wk.sleeping.Store(false)
		case idle < spinPasses:
			idle++
			runtime.Gosched()
		case !wk.sleeping.Load():
			wk.sleeping.Store(true) // announce, then recheck once
		default:
			wk.park()
			idle = 0
		}
	}
}

// park blocks the worker until a publisher wakes it or the run aborts. It
// is called after a fruitless pass made with sleeping already announced, so
// a flag published since then found the mark set and cleared it.
func (wk *worker) park() {
	ex := wk.ex
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if !wk.sleeping.Load() {
		return
	}
	wk.parked = true
	ex.asleep++
	ex.checkStall()
	for wk.sleeping.Load() {
		wk.cond.Wait()
	}
}

// wake clears a sleeping worker's mark and signals it.
func (ex *executor) wake(wk *worker) {
	ex.mu.Lock()
	ex.wakeLocked(wk)
	ex.mu.Unlock()
}

func (ex *executor) wakeLocked(wk *worker) {
	if !wk.sleeping.Load() {
		return
	}
	wk.sleeping.Store(false)
	if wk.parked {
		wk.parked = false
		ex.asleep--
		wk.cond.Signal()
	}
}

// checkStall (mu held) aborts the run when nobody is left to publish: every
// worker parked without a pending wake-up or finished, at least one parked.
func (ex *executor) checkStall() {
	if ex.asleep == 0 || ex.asleep+ex.finished < len(ex.workers) {
		return
	}
	var b strings.Builder
	b.WriteString("comm: stalled — every live rank waits on a flag nobody will publish (collective lockstep violation?)")
	const maxShown = 8
	waiting := 0
	for _, rk := range ex.w.ranks {
		if rk.next == nil {
			continue
		}
		if waiting++; waiting > maxShown {
			continue
		}
		// rk.min is the flag value awaited, one off the number it stands for.
		switch s := rk.site; s.kind {
		case waitReduce:
			fmt.Fprintf(&b, "\n  rank %d: allreduce #%d, %d/%d arrived", rk.ID, rk.min-1,
				ex.w.reduceArrived.Load(), ex.w.NRank)
		case waitHalo:
			fmt.Fprintf(&b, "\n  rank %d: halo exchange #%d, %d/%d of shard %d arrived", rk.ID,
				rk.min-1, rk.wk.haloArrived, len(rk.wk.ranks), rk.shard)
		case waitHaloSend:
			fmt.Fprintf(&b, "\n  rank %d: halo phase %d edge %c slot for seq %d (serving rank %d)", rk.ID,
				s.phase, "EWNS"[s.side], rk.min+1, s.serving)
		default:
			fmt.Fprintf(&b, "\n  rank %d: halo phase %d edge %c seq %d (serving rank %d)", rk.ID,
				s.phase, "EWNS"[s.side], rk.min-1, s.serving)
		}
	}
	if waiting > maxShown {
		fmt.Fprintf(&b, "\n  … and %d more", waiting-maxShown)
	}
	ex.abortLocked(b.String())
}

// abortLocked (mu held) records the run's first failure and releases every
// worker; each stops its coroutines on the way out.
func (ex *executor) abortLocked(failure any) {
	if ex.failure == nil {
		ex.failure = failure
	}
	ex.aborted.Store(true)
	for i := range ex.workers {
		ex.wakeLocked(&ex.workers[i])
	}
}

// finish is the worker's deferred epilogue: turn a rank panic into the
// run's failure, stop whatever coroutines are still suspended, and count the
// worker as finished (which may be what completes a stall).
func (wk *worker) finish() {
	ex := wk.ex
	if p := recover(); p != nil {
		ex.mu.Lock()
		ex.abortLocked(p)
		ex.mu.Unlock()
	}
	for _, rk := range wk.ranks {
		if rk.stop != nil {
			rk.halt()
		}
	}
	ex.mu.Lock()
	ex.finished++
	ex.checkStall()
	ex.mu.Unlock()
}

// start wraps the rank's program in a coroutine. The deferred hook names
// the panicking rank and keeps its stack, which is otherwise lost when
// iter.Pull carries the panic value over to the worker.
func (r *Rank) start(program func(*Rank)) {
	r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		defer func() {
			if p := recover(); p != nil && p != any(errStopped) {
				panic(fmt.Sprintf("comm: rank %d panicked: %v\n%s", r.ID, p, debug.Stack()))
			} else if p != nil {
				panic(p)
			}
		}()
		program(r)
	})
}

// halt stops a suspended coroutine of an aborted run: its pending yield
// returns false, await unwinds it with errStopped, and iter.Pull re-raises
// that here, where it is dropped — the run's failure is already recorded.
func (r *Rank) halt() {
	defer func() {
		_ = recover()
		r.next, r.stop, r.yield = nil, nil, nil
	}()
	r.stop()
}

// await suspends the rank until flag ≥ min: the one blocking primitive of
// the runtime. The worker resumes the coroutine only once the flag is up
// (flags only ever increase), so a yield that returns true means "go"; a
// false one means the run is being aborted.
//
//pop:hotpath
func (r *Rank) await(flag *atomic.Int64, min int64, site waitSite) {
	if flag.Load() >= min {
		return
	}
	r.flag, r.min, r.site = flag, min, site
	if !r.yield(struct{}{}) {
		panic(errStopped)
	}
}

// notify wakes the worker of rank peer if it went to sleep waiting for a
// flag this rank just published. Same-shard peers need nothing: their worker
// is the one running.
//
//pop:hotpath
func (r *Rank) notify(peer int) {
	if wk := r.World.ranks[peer].wk; wk != r.wk && wk.sleeping.Load() {
		wk.ex.wake(wk)
	}
}

// notifyAll is notify for a flag every rank may be waiting on (the
// reduction's done number).
//
//pop:hotpath
func (r *Rank) notifyAll() {
	ex := r.wk.ex
	for i := range ex.workers {
		if wk := &ex.workers[i]; wk != r.wk && wk.sleeping.Load() {
			ex.wake(wk)
		}
	}
}
