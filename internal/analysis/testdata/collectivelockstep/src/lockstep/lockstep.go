// Package lockstep exercises the collectivelockstep analyzer: collectives
// guarded by rank-local conditions are diagnosed; conditions derived from
// reductions, lockstep accessors, world config, or trusted helpers are not.
package lockstep

import "repro/internal/comm"

func badIDGuard(r *comm.Rank) {
	if r.ID == 0 {
		r.Barrier() // want `guarded by rank-local condition`
	}
}

func badDerivedBound(r *comm.Rank, fields [][]float64) {
	nb := len(r.Blocks)
	for i := 0; i < nb; i++ {
		r.Exchange(fields) // want `guarded by rank-local condition`
	}
}

func badClockGuard(r *comm.Rank, payload []float64) {
	if r.Clock() > 10 {
		_ = r.AllReduce(payload) // want `guarded by rank-local condition`
	}
}

func badRangeOverLocal(r *comm.Rank, fields [][]float64) {
	for range r.Blocks {
		r.Exchange(fields) // want `guarded by rank-local condition`
	}
}

func badSelect(r *comm.Rank, ch chan int) {
	select {
	case <-ch:
		r.Barrier() // want `inside select`
	default:
	}
}

func goodReducedVerdict(r *comm.Rank, payload []float64, fields [][]float64) {
	g := r.AllReduce(payload)
	if g[0] > 0 { // reduced value: identical on every rank
		r.Exchange(fields)
	}
	for r.ReduceFailed() { // lockstep accessor
		g = r.AllReduce(payload)
	}
	if r.World.NRank > 1 { // shared world config
		r.Barrier()
	}
	_ = g
}

func goodTrustedHelper(r *comm.Rank, payload []float64) {
	g, ok := reduceHelper(r, payload)
	if ok { // helper got the bare rank handle: its results are lockstep
		r.Barrier()
	}
	_ = g
}

func reduceHelper(r *comm.Rank, payload []float64) ([]float64, bool) {
	g := r.AllReduce(payload)
	return g, g[0] > 0
}

// goodGramRestart mirrors the s-step solver's restart decision: the block
// Gram system comes back from one reduction, so a pivot-failure verdict
// computed from it is identical on every rank and may gate the next
// block's collectives.
func goodGramRestart(r *comm.Rank, gram []float64, fields [][]float64) {
	g := r.AllReduce(gram)
	restart := g[0] <= 0 // reduced Gram pivot: lockstep on every rank
	if restart {
		r.Exchange(fields)
	}
	_ = g
}

// badGramRestart is the broken variant: deriving the pivot guard from the
// rank's own clock makes the restart decision rank-local, so ranks would
// disagree about whether the Exchange happens.
func badGramRestart(r *comm.Rank, gram []float64, fields [][]float64) {
	g := r.AllReduce(gram)
	if g[0] <= r.Clock() { // rank-local clock poisons the verdict
		r.Exchange(fields) // want `guarded by rank-local condition`
	}
}

func goodFixedBound(r *comm.Rank, payload []float64, iters int) {
	for k := 0; k < iters; k++ { // caller-shared bound
		_ = r.AllReduce(payload)
	}
}

// rankOwnID leaks rank-local data through a helper return: v1's
// trusted-helper rule let this slip because the helper takes the bare
// handle; the interprocedural summary follows the return value.
func rankOwnID(r *comm.Rank) int {
	return r.ID
}

func badHelperLeak(r *comm.Rank, payload []float64) {
	if rankOwnID(r) == 0 {
		r.Barrier() // want `guarded by rank-local condition`
	}
}

// passThrough propagates whatever taint its argument carries.
func passThrough(x int) int {
	return x + 1
}

func badArgTaint(r *comm.Rank, payload []float64) {
	if passThrough(r.ID) > 0 {
		_ = r.AllReduce(payload) // want `guarded by rank-local condition`
	}
}

func goodArgClean(r *comm.Rank, payload []float64, iters int) {
	if passThrough(iters) > 0 { // caller-shared argument stays clean
		_ = r.AllReduce(payload)
	}
}

// worldSize derives from shared world config only — its summary is clean
// even though it takes the rank handle.
func worldSize(r *comm.Rank) int {
	return r.World.NRank
}

func goodHelperClean(r *comm.Rank, fields [][]float64) {
	if worldSize(r) > 1 {
		r.Exchange(fields)
	}
}

// The Krylov driver keeps its scalars in struct fields, and its
// recurrences are methods that talk to each other only through those
// fields: taint must follow a field from the method that writes it to the
// method that guards a collective on it.
type drv struct {
	r *comm.Rank
	k int
}

type rec struct {
	mine    int
	ahead   bool
	verdict bool
	fields  [][]float64
}

// local parks rank-local data in a field …
func (c *rec) local(l *drv) {
	c.mine = l.r.ID
	c.ahead = l.r.Clock() > 1
}

// … and advance guards an Exchange on it: ranks would disagree.
func (c *rec) advance(l *drv) {
	if c.mine == 0 {
		l.r.Exchange(c.fields) // want `guarded by rank-local condition`
	}
}

// The taint survives a hop through a local and a second field.
func (c *rec) relay(l *drv) {
	late := c.ahead
	c.verdict = late
}

func (c *rec) badRelayed(l *drv) {
	if c.verdict {
		l.r.Barrier() // want `guarded by rank-local condition`
	}
}

// A field that only ever holds reduced values or shared counters is clean.
type cleanRec struct {
	restart bool
	fields  [][]float64
}

func (c *cleanRec) observe(l *drv, gram []float64) {
	g := l.r.AllReduce(gram)
	c.restart = g[0] <= 0
	l.k++
}

func (c *cleanRec) goodAdvance(l *drv, iters int) {
	if c.restart {
		l.r.Exchange(c.fields)
	}
	for l.k < iters {
		l.r.Barrier()
		l.k++
	}
}

// A shard program: shard-local data (sh.ID, sh.Ranks and everything of a
// rank reached through them) is taint like a rank's own …
func badShardGuard(sh *comm.Shard, vals [][]float64) {
	if sh.Ranks[0].ID == 0 {
		_ = sh.AllReduce(vals) // want `guarded by rank-local condition`
	}
}

// … a collective inside a per-rank pass would be entered once per rank …
func badCollectiveInPass(sh *comm.Shard, fields [][][]float64) {
	for range sh.Each {
		sh.Exchange(fields) // want `inside a per-rank pass`
	}
}

// … and a verdict reduced over every shard steers collectives safely.
func goodShardReducedVerdict(sh *comm.Shard, vals [][]float64, fields [][][]float64) {
	for _, r := range sh.Each {
		vals[r.ID%len(vals)][0] = 1
	}
	if g := sh.AllReduce(vals); g[0] > 0 {
		sh.Exchange(fields)
	}
}
