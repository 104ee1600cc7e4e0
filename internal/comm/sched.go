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

// Shard executor: how virtual ranks get onto real hardware.
//
// Ranks are loop iterations. World.RunShards splits the ranks into P
// contiguous shards (P = the Threads knob, default GOMAXPROCS) and runs one
// worker per shard; the worker runs the shard program once, as plain code.
// A shard program is bulk-synchronous, the way the paper's solvers are: a
// per-rank pass over the shard (Shard.Each) does the rank-local work between
// two collectives, then one call of a Shard collective (Exchange,
// ExchangeMulti, AllReduce) performs that collective for every rank of the
// shard at once. Contiguity matters — ByRank assigns neighbouring blocks to
// neighbouring ranks, so a shard's working set is a connected patch of the
// grid and each core keeps temporal locality over one patch instead of the
// whole domain.
//
// Nothing is suspended per rank: a reduction costs the shard one arrival
// add, a halo exchange one pass of direct copies plus the mailboxes on the
// shard's seams (halo.go, reduce.go). The only blocking point is a worker
// waiting on another shard — the reduction's done number, or the
// sent/consumed counter of a seam mailbox (worker.await).
//
// History: ranks were goroutines wired by channels (at 676 ranks that
// runtime was ~80% of a ChronGear solve's wall clock), then coroutines
// resumed round-robin by these workers, two switches per rank per
// collective (~23% of samples at 676 ranks). World.Run keeps the coroutine
// form as an adapter for free-form rank programs (Shard.coroutines below);
// no solve path uses it.
//
// Liveness. A waiting worker spins a bounded number of times
// (runtime.Gosched between checks), then announces itself asleep, rechecks
// once, and parks on its condition variable. Whoever publishes a flag checks
// the sleeping mark of the worker that may be waiting on it (the edge peer's
// worker; every worker for the reduction) and wakes it —
// announce-then-recheck against publish-then-check closes the lost-wake-up
// window. Mutex critical sections in shard programs contain no collective
// calls, so a running worker never blocks on a lock held by a waiting one.
//
// Failure. A lockstep violation — a shard that skips a collective the others
// entered — leaves workers waiting on a flag nobody will publish. The
// executor keeps its own count: when every worker is parked or finished and
// at least one is parked, RunShards panics on its caller naming each waiting
// shard's collective, its sequence number and what it waits for. A panic
// inside a shard program is caught by its worker, which names the rank whose
// pass it was in and keeps the stack, releases the other workers, and
// RunShards re-panics on its caller.
//
// Determinism is untouched by construction: the executor decides *when* a
// rank's work runs, never *what* it computes or is charged, so solutions and
// golden traces are bitwise identical across any Threads setting.

// spinPasses bounds the fruitless checks a waiting worker makes before
// parking. A count, not a duration: comm must stay free of wall clocks.
const spinPasses = 4096

// errStopped unwinds a worker whose run is being aborted (worker.await).
var errStopped = errors.New("comm: run aborted")

// Wait-site kinds recorded for the stall diagnostic.
const (
	waitReduce   = iota + 1
	waitHaloSend // a free slot of a seam mailbox
	waitHaloRecv // a message in a seam mailbox
	waitLocal    // World.Run: the shard's own ranks disagree on the next collective
)

// waitSite names what a waiting worker waits for: the collective's kind and
// sequence number, and for a mailbox the phase, edge and the rank whose
// strip it carries.
type waitSite struct {
	kind               int
	seq                int64
	phase, side, serve int
}

// Shard is one worker's contiguous run of ranks, the handle a shard program
// receives. Its collectives take one payload or field set per rank, indexed
// like Ranks.
type Shard struct {
	// ID is the shard's index in [0, EffectiveThreads()).
	ID int
	// Ranks lists the shard's ranks in rank order.
	Ranks []*Rank

	w   *World
	wk  *worker
	cur int // index of the rank whose pass (Each) is running, −1 outside one

	// Scratch for the World.Run adapter's gathered collective arguments.
	vals   [][]float64
	levels [][][][]float64
}

// Each is a per-rank pass over the shard, for use as a range-over-func
// sequence: `for i, r := range sh.Each { … }` visits every rank in rank order.
// A pass holds rank-local work only — a collective inside it would be
// entered once per rank. A panic inside the loop body is reported on
// RunShards' caller naming the rank it was running for.
func (sh *Shard) Each(yield func(int, *Rank) bool) {
	for i, r := range sh.Ranks {
		sh.cur = i
		if !yield(i, r) {
			break
		}
	}
	sh.cur = -1
}

// worker drives one shard. sleeping is the lock-free mark publishers test;
// parked (under executor.mu) counts the worker into executor.asleep. site is
// what it waits for (read by the stall diagnostic under executor.mu, which
// the worker holds when it parks), exchanges counts the halo exchanges the
// shard completed this run, and coroutines marks a World.Run adapter.
type worker struct {
	ex         *executor
	sh         Shard
	sleeping   atomic.Bool
	parked     bool
	cond       sync.Cond
	site       waitSite
	exchanges  int64
	coroutines bool
}

// executor is one World's set of workers, cached across runs and rebuilt
// only when the effective thread count changes.
type executor struct {
	w       *World
	workers []worker
	wg      sync.WaitGroup
	aborted atomic.Bool

	mu       sync.Mutex
	asleep   int // workers parked with no wake-up pending
	finished int // workers whose program returned (or was unwound)
	failure  any // first panic or stall diagnostic of the run
}

// SetThreads sets the worker count for subsequent runs: at most n virtual
// ranks execute concurrently. n ≤ 0 restores the default (GOMAXPROCS at run
// entry); values above NRank are clamped to one rank per worker. Must not be
// called while a run is in flight. Solutions are bitwise identical across
// all settings; only wall-clock and cache behavior change.
func (w *World) SetThreads(n int) { w.threads = n }

// Threads returns the configured worker knob (0 = auto/GOMAXPROCS).
func (w *World) Threads() int { return w.threads }

// EffectiveThreads resolves the knob against the machine and the rank
// count: the worker count the next run will actually use (Threads, defaulted
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
		wk.ex, wk.cond.L = ex, &ex.mu
		wk.sh = Shard{ID: s, Ranks: w.ranks[lo:hi], w: w, wk: wk, cur: -1}
		lo = hi
	}
	w.ex, w.plans = ex, buildPlans(w, p)
	return ex
}

// run executes program on every shard: worker 0 on the caller's goroutine,
// the rest on their own. A recorded failure is re-raised on the caller after
// every worker has returned.
func (ex *executor) run(program func(*Shard)) {
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

// run is the worker body: the shard program, then the epilogue.
func (wk *worker) run(program func(*Shard)) {
	defer wk.ex.wg.Done()
	defer wk.finish()
	wk.site, wk.exchanges, wk.coroutines = waitSite{}, 0, false
	wk.sh.cur = -1
	program(&wk.sh)
}

// finish is the worker's deferred epilogue: turn a panic into the run's
// failure — naming the rank whose pass it interrupted, with the stack — and
// count the worker as finished (which may be what completes a stall).
func (wk *worker) finish() {
	ex := wk.ex
	if p := recover(); p != nil && p != any(errStopped) {
		if sh := &wk.sh; sh.cur >= 0 {
			p = fmt.Sprintf("comm: rank %d panicked: %v\n%s", sh.Ranks[sh.cur].ID, p, debug.Stack())
		}
		ex.mu.Lock()
		ex.abortLocked(p)
		ex.mu.Unlock()
	}
	ex.mu.Lock()
	ex.finished++
	ex.checkStall()
	ex.mu.Unlock()
}

// await blocks the worker until flag ≥ min: the one blocking primitive of
// the runtime. It spins, announces sleeping, rechecks and parks; an aborted
// run unwinds it with errStopped.
//
//pop:hotpath
func (wk *worker) await(flag *atomic.Int64, min int64, site waitSite) {
	if flag.Load() >= min {
		return
	}
	wk.site = site
	ex := wk.ex
	for idle := 0; ; idle++ {
		if ex.aborted.Load() {
			panic(errStopped)
		}
		if flag.Load() >= min {
			wk.sleeping.Store(false)
			return
		}
		switch {
		case idle < spinPasses:
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
// is called after a fruitless check made with sleeping already announced, so
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

// notify wakes the worker running rank peer if it went to sleep waiting for
// a flag this worker just published.
//
//pop:hotpath
func (wk *worker) notify(peer int) {
	if o := wk.ex.w.ranks[peer].wk; o != wk && o.sleeping.Load() {
		wk.ex.wake(o)
	}
}

// notifyAll is notify for a flag every worker may be waiting on (the
// reduction's done number).
//
//pop:hotpath
func (wk *worker) notifyAll() {
	ex := wk.ex
	for i := range ex.workers {
		if o := &ex.workers[i]; o != wk && o.sleeping.Load() {
			ex.wake(o)
		}
	}
}

// checkStall (mu held) aborts the run when nobody is left to publish: every
// worker parked without a pending wake-up or finished, at least one parked.
func (ex *executor) checkStall() {
	if ex.asleep == 0 || ex.asleep+ex.finished < len(ex.workers) {
		return
	}
	var b strings.Builder
	b.WriteString("comm: stalled — every live shard waits on a flag nobody will publish (collective lockstep violation?)")
	const maxShown = 8
	shown := 0
	line := func(format string, args ...any) {
		if shown++; shown <= maxShown {
			fmt.Fprintf(&b, "\n  "+format, args...)
		}
	}
	w := ex.w
	arrived := w.reduceArrived.Load() // ranks deposited in the pending reduction
	for i := range ex.workers {
		if wk := &ex.workers[i]; wk.parked && wk.site.kind == waitLocal {
			for _, r := range wk.sh.Ranks {
				if r.next != nil && r.op == opReduce {
					arrived++
				}
			}
		}
	}
	for i := range ex.workers {
		wk := &ex.workers[i]
		if !wk.parked {
			continue
		}
		s := wk.site
		if s.kind == waitHaloSend || s.kind == waitHaloRecv {
			who := fmt.Sprintf("shard %d", wk.sh.ID)
			if wk.coroutines {
				who = fmt.Sprintf("rank %d", s.serve)
			}
			if s.kind == waitHaloSend {
				line("%s: halo phase %d edge %c slot for seq %d (serving rank %d)", who, s.phase, "EWNS"[s.side], s.seq, s.serve)
			} else {
				line("%s: halo phase %d edge %c seq %d (serving rank %d)", who, s.phase, "EWNS"[s.side], s.seq, s.serve)
			}
			continue
		}
		if !wk.coroutines {
			line("shard %d: allreduce #%d, %d/%d ranks arrived", wk.sh.ID, s.seq, arrived, w.NRank)
			continue
		}
		// World.Run: one line per suspended rank, on the collective it is in
		// (a shard inside its reduction has already counted it in reduceSeq).
		atExchange := 0
		for _, r := range wk.sh.Ranks {
			if r.next != nil && r.op == opExchange {
				atExchange++
			}
		}
		for _, r := range wk.sh.Ranks {
			seq := r.reduceSeq
			if s.kind == waitReduce {
				seq = s.seq
			}
			switch {
			case r.next == nil:
			case r.op == opExchange:
				line("rank %d: halo exchange #%d, %d/%d of shard %d arrived", r.ID, wk.exchanges,
					atExchange, len(wk.sh.Ranks), wk.sh.ID)
			default:
				line("rank %d: allreduce #%d, %d/%d arrived", r.ID, seq, arrived, w.NRank)
			}
		}
	}
	if shown > maxShown {
		fmt.Fprintf(&b, "\n  … and %d more", shown-maxShown)
	}
	ex.abortLocked(b.String())
}

// abortLocked (mu held) records the run's first failure and releases every
// worker; each unwinds its program on the way out.
func (ex *executor) abortLocked(failure any) {
	if ex.failure == nil {
		ex.failure = failure
	}
	ex.aborted.Store(true)
	for i := range ex.workers {
		ex.wakeLocked(&ex.workers[i])
	}
}

// The World.Run adapter: free-form rank programs, each a coroutine, over the
// same workers. A rank's collective call records its arguments and yields
// (Rank.suspend); once every rank of the shard has yielded, the worker
// performs the collective through the shard API and resumes them all. It
// exists for rank programs written against Rank's own collectives — the
// runtime's tests and probes; solves are shard programs.

// Collective kinds a suspended rank has requested.
const (
	opNone = iota
	opReduce
	opExchange
)

// coroutines is the shard program World.Run executes: start every rank's
// program, run each to its next collective, perform that collective for the
// shard, repeat until every program has returned. Ranks that disagree on the
// next collective — or a rank that returned while others wait — can never be
// served, so the worker parks for good and the stall diagnostic names them.
func (sh *Shard) coroutines(program func(*Rank)) {
	wk := sh.wk
	wk.coroutines = true
	for _, r := range sh.Ranks {
		r.start(program)
	}
	defer func() {
		for _, r := range sh.Ranks {
			if r.stop != nil {
				r.halt()
			}
		}
	}()
	n := len(sh.Ranks)
	if cap(sh.vals) < n {
		sh.vals, sh.levels = make([][]float64, n), make([][][][]float64, n)
	}
	vals, levels := sh.vals[:n], sh.levels[:n]
	live := n
	for {
		for _, r := range sh.Ranks {
			if r.next == nil {
				continue
			}
			r.op = opNone
			if _, ok := r.next(); !ok {
				r.next, r.stop, r.yield = nil, nil, nil
				live--
			}
		}
		if live == 0 {
			return
		}
		op := sh.Ranks[0].op
		for _, r := range sh.Ranks {
			if live < n || r.op != op {
				wk.stuck()
			}
		}
		for i, r := range sh.Ranks {
			vals[i], levels[i] = r.vals, r.multis
		}
		switch op {
		case opReduce:
			out := sh.AllReduce(vals)
			for _, r := range sh.Ranks {
				r.out = out
			}
		case opExchange:
			sh.ExchangeMulti(levels)
		}
		clear(vals)
		clear(levels)
	}
}

// stuck parks the worker until the run aborts: its ranks wait on each other
// in a way no other shard can resolve.
func (wk *worker) stuck() {
	wk.site = waitSite{kind: waitLocal}
	for !wk.ex.aborted.Load() {
		wk.sleeping.Store(true)
		wk.park()
	}
	panic(errStopped)
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
// returns false, suspend unwinds it with errStopped, and iter.Pull re-raises
// that here, where it is dropped — the run's failure is already recorded.
func (r *Rank) halt() {
	defer func() {
		_ = recover()
		r.next, r.stop, r.yield = nil, nil, nil
	}()
	r.stop()
}

// suspend yields a World.Run rank to its worker at a collective it has
// recorded in r.op; the worker resumes it once the collective is done. A
// false yield means the run is being aborted.
func (r *Rank) suspend() {
	if !r.yield(struct{}{}) {
		panic(errStopped)
	}
}
