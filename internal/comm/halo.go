package comm

import (
	"math"
	"sync/atomic"

	"repro/internal/decomp"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Halo exchange. POP updates block halos in two phases — east/west columns
// first, then north/south rows that span the full padded width including the
// freshly received columns — so corner values from diagonal neighbour blocks
// arrive in two hops and each block sends/receives only four messages per
// update, the 4α term in the paper's boundary-cost model (§2.2).
//
// Steady-state memory discipline: everything the exchange needs per call is
// precomputed at World construction. Each rank owns two phasePlans (E/W and
// N/S) listing its send, local-copy, and receive edges in a fixed order, and
// every cross-rank edge is a two-slot mailbox indexed by message sequence
// number, guarded by two atomic counters:
//
//	sender:   k := sent; await consumed ≥ k−1; fill slot k&1; sent = k+1
//	receiver: k := consumed; await sent > k; copy slot k&1 out; consumed = k+1
//
// The counters carry the happens-before edges that make slot reuse
// race-free: the sender rewrites slot k&1 only after observing the
// receiver's consumed-store for message k−2, which the receiver performs
// only after it finished reading; the receiver reads a slot only after
// observing the sent-store that follows the fill. Both waits go through
// Rank.await, so a rank short of a message or a slot yields to its shard
// siblings instead of blocking (sched.go). Slots are sized for single-level
// exchanges and grow once (amortized) on the first wider multi-level call;
// after that the exchange path performs zero allocations.

// edge is one directed cross-rank mailbox: strips leave rank src and fill a
// halo of rank dst. The counters are world-lifetime message sequence numbers
// (a completed Run leaves every edge balanced, sent == consumed).
type edge struct {
	sent, consumed atomic.Int64
	buf            [2][]float64
	clock          [2]float64 // sender's virtual clock at the send
	src, dst       int
}

// planEdge is one cross-rank message of a phase, seen from local block bi:
// as a send, the strip (stripLen per level) is extracted from that block's
// `side`; as a receive, it fills the halo on that side. The strip's
// rectangle inside the block's padded array — offset of its first element,
// row width, row count, row stride — is resolved here once, so the exchange
// touches neither the decomp.Block nor stripRect per message.
type planEdge struct {
	bi, side, stripLen       int
	off, width, rows, stride int
	e                        *edge
}

// localEdge is a same-rank neighbour pair: the halo on side `side` of block
// dstBI is filled by a direct copy from the interior of block srcBI.
type localEdge struct {
	dstBI, srcBI int
	side         int
}

// phasePlan is one rank's complete edge list for one exchange phase, in the
// deterministic (block, side) iteration order the original per-call
// neighbour search produced — preserving it keeps the virtual-clock
// arithmetic (max-of-arrivals, ordered cost sums) bitwise identical.
type phasePlan struct {
	sends  []planEdge
	locals []localEdge
	recvs  []planEdge
}

// phaseSides lists the two receiving sides of each exchange phase.
var phaseSides = [2][2]int{
	{SideE, SideW},
	{SideN, SideS},
}

// buildPlans precomputes every rank's per-phase edge lists and the
// cross-rank mailboxes with their two slots each.
func buildPlans(w *World) [][2]phasePlan {
	d := w.D
	h := d.Halo
	stripLen := func(b *decomp.Block, side int) int {
		if side == SideN || side == SideS {
			return h * (b.NxI + 2*h)
		}
		return h * b.NyI
	}
	// One mailbox per (receiving block, side) with a live cross-rank
	// neighbour. The strip is extracted from the sender, but E/W neighbours
	// share NyI and N/S neighbours share NxI, so the receiver's dimensions
	// size the slots equally well.
	edges := make(map[haloKey]*edge)
	for _, id := range d.OceanBlocks {
		b := &d.Blocks[id]
		for side, off := range sideOffsets {
			nb := d.NeighborID(b, off[0], off[1])
			if nb < 0 || d.Blocks[nb].Rank == b.Rank {
				continue
			}
			e := &edge{src: d.Blocks[nb].Rank, dst: b.Rank}
			n := stripLen(b, side)
			e.buf[0], e.buf[1] = make([]float64, n), make([]float64, n)
			edges[haloKey{id, side}] = e
		}
	}
	plans := make([][2]phasePlan, w.NRank)
	for rid := 0; rid < w.NRank; rid++ {
		for phase := 0; phase < 2; phase++ {
			plan := &plans[rid][phase]
			for i, id := range d.ByRank[rid] {
				b := &d.Blocks[id]
				for _, side := range phaseSides[phase] {
					off := sideOffsets[side]
					nb := d.NeighborID(b, off[0], off[1])
					if nb < 0 {
						continue // domain edge or land: halo keeps zeros
					}
					if d.Blocks[nb].Rank == rid {
						plan.locals = append(plan.locals, localEdge{
							dstBI: i, srcBI: w.blockPos[nb], side: side})
						continue
					}
					// Outgoing: my strip on `side` lands in the halo on the
					// opposite side of the neighbour. Incoming: my halo on
					// `side` is filled by that same neighbour's strip.
					pe := planEdge{bi: i, side: side, stride: b.NxI + 2*h}
					pe.off, pe.width, pe.rows = stripRect(b.NxI, b.NyI, h, side, false)
					pe.stripLen = pe.width * pe.rows
					pe.e = edges[haloKey{nb, opposite(side)}]
					plan.sends = append(plan.sends, pe)
					pe.off, _, _ = stripRect(b.NxI, b.NyI, h, side, true)
					pe.e = edges[haloKey{id, side}]
					plan.recvs = append(plan.recvs, pe)
				}
			}
		}
	}
	return plans
}

// Exchange refreshes the halos of one distributed field. fields[i] is the
// padded local array for r.Blocks[i]. Collective: every rank must call
// Exchange in the same program order.
//
//pop:hotpath
func (r *Rank) Exchange(fields [][]float64) {
	r.multi[0] = fields
	r.ExchangeMulti(r.multi[:])
	r.multi[0] = nil
}

// ExchangeMulti refreshes the halos of several fields (e.g. the levels of a
// 3-D field) in one aggregated update: each neighbour receives a single
// message carrying every level's strip, paying the latency α once and the
// bandwidth β per level — exactly how POP aggregates its 3-D halo updates.
// levels[L][i] is level L's padded array for r.Blocks[i].
//
//pop:hotpath
func (r *Rank) ExchangeMulti(levels [][][]float64) {
	plans := &r.World.plans[r.ID]
	for _, fields := range levels {
		if len(fields) != len(r.Blocks) {
			panic("comm: Exchange fields/blocks length mismatch")
		}
	}
	exchangePhase(r, &plans[0], levels, 0)
	exchangePhase(r, &plans[1], levels, 1)
}

// exchangePhase executes one precomputed phase plan: sends first (a slot is
// free unless the receiver is two messages behind), then same-rank direct
// copies (free in the cost model: intra-node), then receives.
//
//pop:hotpath
func exchangePhase(r *Rank, plan *phasePlan, levels [][][]float64, phase int) {
	w := r.World
	h := w.D.Halo
	entry := r.clock
	nlv := len(levels)

	// Fault injection, halo classes. One draw per (rank, phase sequence):
	// "drop" discards everything this rank receives this phase (its halos go
	// stale), "corrupt" NaN-poisons the first received strip. The sequence
	// number advances regardless so schedules stay aligned across plans.
	haloSeq := r.faultBase + r.haloSeq
	r.haloSeq++
	var drop, corrupt bool
	if w.Faults.Enabled() {
		drop = w.Faults.DropHalo(r.ID, haloSeq)
		if !drop {
			corrupt = w.Faults.CorruptHalo(r.ID, haloSeq)
		}
		if (drop || corrupt) && r.trace != nil {
			class := faults.HaloDrop
			if corrupt {
				class = faults.HaloCorrupt
			}
			r.trace.Add(obs.Event{Name: obs.EvFault, Point: true, T0: entry,
				Value: float64(haloSeq), Aux: float64(class), Iter: -1, Straggler: -1})
		}
	}

	for ei := range plan.sends {
		pe := &plan.sends[ei]
		e := pe.e
		k := e.sent.Load()
		r.await(&e.consumed, k-1, waitHaloSend, phase, pe.side)
		need := nlv * pe.stripLen
		buf := e.buf[k&1]
		if cap(buf) < need {
			buf = make([]float64, need)
		}
		buf = buf[:need]
		for li, fields := range levels {
			copyRows(buf[li*pe.stripLen:], pe.width, fields[pe.bi][pe.off:], pe.stride, pe.width, pe.rows)
		}
		e.buf[k&1], e.clock[k&1] = buf, r.clock
		e.sent.Store(k + 1)
		r.notify(e.dst)
	}

	for _, le := range plan.locals {
		dst := r.Blocks[le.dstBI]
		src := r.Blocks[le.srcBI]
		for _, fields := range levels {
			copyStrip(fields[le.dstBI], dst.NxI, dst.NyI,
				fields[le.srcBI], src.NxI, src.NyI, h, le.side)
		}
	}

	arrival := r.clock
	var charge float64
	var phaseBytes int64
	for ei := range plan.recvs {
		pe := &plan.recvs[ei]
		e := pe.e
		k := e.consumed.Load()
		r.await(&e.sent, k+1, waitHaloRecv, phase, pe.side)
		data, clock := e.buf[k&1], e.clock[k&1]
		if corrupt && ei == 0 {
			// Poison the received payload before it lands in the halo — the
			// whole message, so the NaN reaches ring-1 cells the stencil
			// actually reads regardless of side and halo depth. The slot is
			// fully rewritten by the sender's next strip copy, so the
			// NaN does not leak into later phases.
			nan := math.NaN()
			for di := range data {
				data[di] = nan
			}
		}
		if !drop {
			for li, fields := range levels {
				copyRows(fields[pe.bi][pe.off:], pe.stride, data[li*pe.stripLen:], pe.width, pe.width, pe.rows)
			}
		}
		e.consumed.Store(k + 1)
		r.notify(e.src)
		if clock > arrival {
			arrival = clock
		}
		bytes := int64(len(data)) * 8 // float64 payload
		r.ctr.HaloMsgs++
		r.ctr.HaloBytes += bytes
		phaseBytes += bytes
		charge += w.Cost.P2PTime(bytes)
	}
	r.clock = arrival + charge
	r.ctr.THalo += r.clock - entry
	if r.trace != nil {
		r.trace.Add(obs.Event{Name: obs.EvHalo, T0: entry, T1: r.clock,
			Value: float64(phaseBytes), Iter: -1, Straggler: -1})
	}
}

// opposite maps a receiving side to the sender's receiving side (E↔W, N↔S:
// the side constants pair up as 0/1 and 2/3).
func opposite(side int) int { return side ^ 1 }

// stripRect locates one strip inside a block's padded array: the offset of
// its first element, its row width and its row count (rows are nxi+2h
// apart). With halo set it is the halo on `side`; otherwise the interior
// cells the neighbour on that side needs. E/W strips cover interior rows
// only; N/S strips span the full padded width so corners propagate (the
// two-phase scheme).
func stripRect(nxi, nyi, h, side int, halo bool) (off, width, rows int) {
	nxp, nyp := nxi+2*h, nyi+2*h
	in := h // how far the strip sits from its side's edge of the array
	if halo {
		in = 0
	}
	switch side {
	case SideW:
		return h*nxp + in, h, nyi
	case SideE:
		return h*nxp + nxp - in - h, h, nyi
	case SideS:
		return in * nxp, nxp, h
	default: // SideN
		return (nyp - in - h) * nxp, nxp, h
	}
}

// copyRows copies `rows` runs of `width` elements from src to dst, the runs
// srcStride and dstStride apart. An N/S strip is contiguous on both sides
// and moves as one block; an E/W strip row is h (typically two) elements,
// where memmove's call overhead — or even setting a slice up per row — is
// the whole cost, so those move with a plain indexed loop. Kept out of
// line: inlined into exchangePhase, whose registers are all spoken for, the
// two loops spill and a 676-rank halo round goes from 250 to 292 µs.
//
//pop:hotpath
//go:noinline
func copyRows(dst []float64, dstStride int, src []float64, srcStride, width, rows int) {
	if width == dstStride && width == srcStride {
		copy(dst[:rows*width], src[:rows*width])
		return
	}
	for d, s, end := 0, 0, rows*dstStride; d < end; d, s = d+dstStride, s+srcStride {
		for i := 0; i < width; i++ {
			dst[d+i] = src[s+i]
		}
	}
}

// copyStrip fills the halo on side `side` of a block directly from a
// same-rank neighbour's interior — the local-copy pass, fused so no
// intermediate strip is materialized. The source data comes from the
// opposite(side) edge of the neighbour, exactly as a send followed by a
// receive would move it.
//
//pop:hotpath
func copyStrip(dst []float64, dnxi, dnyi int, src []float64, snxi, snyi, h, side int) {
	doff, width, rows := stripRect(dnxi, dnyi, h, side, true)
	soff, _, _ := stripRect(snxi, snyi, h, opposite(side), false)
	copyRows(dst[doff:], dnxi+2*h, src[soff:], snxi+2*h, width, rows)
}
