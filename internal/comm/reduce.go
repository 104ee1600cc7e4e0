package comm

import (
	"fmt"

	"repro/internal/obs"
)

// Global reductions. The combine order is a fixed binomial tree over rank
// IDs — the same association an MPI_Allreduce on a power-of-two communicator
// performs — so results are bitwise reproducible regardless of how ranks are
// scheduled, and the virtual cost grows as log(p)·α exactly like the
// paper's Eq. 2 term.

// AllReduce sums the shard's payloads element-wise across all ranks of the
// world and returns the global result; vals[i] is the payload of Ranks[i].
// It also synchronizes virtual clocks: every rank leaves at max(entry
// clocks) + ReduceTime. Collective: every shard must call it, outside its
// Shard.Each passes, the same number of times with payloads of one width —
// a payload whose width differs from the one the reduction was folded at
// panics (on the run's caller) instead of returning sums over misaligned
// deposits.
//
// The returned slice is a persistent reduction workspace shared read-only
// by all ranks: it stays valid until the shard's next collective call, then
// may be overwritten. Callers must not write to it, and callers needing the
// values longer must copy them out — the solvers all consume the result
// immediately, which is what lets the steady-state reduction path allocate
// nothing.
//
// Alongside the maximum entry clock the reduction carries the ID of the
// rank that owned it — the straggler whose late arrival every other rank
// waited for. When tracing is enabled each rank records a reduce span with
// that attribution and its own wait (max entry − own entry), which is what
// lets a trace answer "which rank was the critical path of that reduction?"
// (ties break toward the lowest rank, deterministically).
//
// Mechanics: each rank's payload is deposited into its own reducePart
// buffer and the shard bumps one arrival counter by its rank count; the
// shard whose add completes the world folds all deposits in the fixed
// binomial-tree order (fold), leaves the result in the parity root buffer —
// resliced to the width it folded at — and publishes the reduction's
// sequence number in reduceDone. Every other shard awaits that number and
// checks its width against the root buffer's on the way out.
//
// Buffer-reuse safety: a shard rewrites its ranks' reducePart for reduction
// k+1 only after observing done ≥ k+1, which the folder stores after its
// last read of the deposits. The root buffers alternate by call parity: the
// buffer of reduction k (and its length) is rewritten by the folder of
// reduction k+2, which runs only after every shard has arrived at k+2 —
// i.e. has passed the collective call that ends the returned slice's
// documented lifetime. Arrival (an atomic add) and done (an atomic
// store/load pair) are the happens-before edges.
//
//pop:hotpath
func (sh *Shard) AllReduce(vals [][]float64) []float64 {
	if sh.cur >= 0 {
		collectiveInPass(sh.ID, sh.Ranks[sh.cur].ID, "AllReduce")
	}
	w := sh.w
	p := w.NRank
	if len(vals) != len(sh.Ranks) {
		payloadCount(sh.ID, len(vals), len(sh.Ranks))
	}
	n := len(vals[0])
	for i, r := range sh.Ranks {
		r.entry = r.clock
		r.reduceSeq++
		r.ctr.Reductions++
		if len(vals[i]) != n {
			widthMismatch(r.ID, len(vals[i]), n)
		}
		// Two metadata slots ride behind the payload: [n] the max entry
		// clock, [n+1] the rank owning it. Both reduce with max-by-clock, so
		// the payload sum below is untouched.
		partial := grow(&w.reducePart[r.ID], n+2)
		copy(partial, vals[i])
		partial[n] = r.clock
		partial[n+1] = float64(r.ID)
	}
	seq := sh.Ranks[0].reduceSeq - 1

	var result []float64
	if w.reduceArrived.Add(int64(len(sh.Ranks))) == int64(p) { // the last shard in folds
		result = w.fold(n, seq)
		w.reduceArrived.Store(0)
		w.reduceDone.Store(seq + 1)
		sh.wk.notifyAll()
	} else {
		sh.wk.await(&w.reduceDone, seq+1, waitSite{kind: waitReduce, seq: seq})
		result = w.reduceRoot[seq&1]
		if len(result) != n+2 {
			widthMismatch(sh.Ranks[0].ID, n, len(result)-2)
		}
	}

	for _, r := range sh.Ranks {
		newClock := result[n] + w.Cost.ReduceTime(p, seq)
		r.ctr.TReduce += newClock - r.entry
		r.clock = newClock
		if r.trace != nil {
			r.trace.Add(obs.Event{Name: obs.EvReduce, T0: r.entry, T1: newClock,
				Value: float64(n), Straggler: int(result[n+1]), Wait: result[n] - r.entry,
				Iter: -1})
		}
	}
	return result[:n]
}

// fold combines every rank's deposit in the fixed binomial tree — rank id
// absorbs id+1, id+2, id+4, … low step first, each already folded over its
// own subtree — and returns reduction seq's root buffer. Payloads add; the
// two metadata slots reduce by max-by-clock, ties to the lowest rank.
//
//pop:hotpath
func (w *World) fold(n int, seq int64) []float64 {
	part := w.reducePart
	for s := 1; s < len(part); s <<= 1 {
		for id := 0; id+s < len(part); id += 2 * s {
			acc, m := part[id][:n+2], part[id+s][:n+2]
			for i := 0; i < n; i++ {
				acc[i] += m[i]
			}
			if m[n] > acc[n] || (m[n] == acc[n] && m[n+1] < acc[n+1]) {
				acc[n], acc[n+1] = m[n], m[n+1]
			}
		}
	}
	result := grow(&w.reduceRoot[seq&1], n+2)
	copy(result, part[0][:n+2])
	w.reduceRoot[seq&1] = result // its length is the width this reduction was folded at
	return result
}

// widthMismatch reports a rank that entered a reduction with a payload width
// other than the one the reduction was folded at (whichever of the two is
// the odd one out, the sums are garbage). Kept out of the hot path because
// it formats.
func widthMismatch(rank, n, folded int) {
	panic(fmt.Sprintf("comm: AllReduce widths differ: rank %d passes %d values, the reduction was folded at %d",
		rank, n, folded))
}

// payloadCount reports a shard collective handed a number of payloads or
// field sets other than its rank count.
func payloadCount(shard, got, want int) {
	panic(fmt.Sprintf("comm: shard %d passes %d per-rank arguments to a collective, it has %d ranks",
		shard, got, want))
}

// collectiveInPass reports a shard collective called inside a Shard.Each
// pass, where it would be entered once per rank instead of once per shard.
// Kept out of the hot path because it formats.
func collectiveInPass(shard, rank int, collective string) {
	panic(fmt.Sprintf("comm: shard %d calls %s inside a Shard.Each pass (rank %d): a collective runs once per shard, between passes",
		shard, collective, rank))
}

// AllReduce is the per-rank form of Shard.AllReduce for World.Run programs:
// vals is this rank's payload, the result is shared by every rank and valid
// until the rank's next collective call. Collective: every rank must call it
// the same number of times with equal-length arguments.
//
//pop:hotpath
func (r *Rank) AllReduce(vals []float64) []float64 {
	r.op, r.vals = opReduce, vals
	r.suspend()
	out := r.out
	r.vals, r.out = nil, nil
	return out
}

// Barrier blocks until every rank reaches it (an empty AllReduce).
func (r *Rank) Barrier() { r.AllReduce(nil) }
