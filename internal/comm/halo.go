package comm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// Halo exchange. POP updates block halos in two phases — east/west columns
// first, then north/south rows that span the full padded width including the
// freshly received columns — so corner values from diagonal neighbour blocks
// arrive in two hops and each block sends/receives only four messages per
// update, the 4α term in the paper's boundary-cost model (§2.2).
//
// The exchange is a collective executed once per worker shard, the way
// AllReduce is: Shard.Exchange records every rank's levels and runs both
// phases for the whole shard (Shard.exchange). One thread serves all of a
// shard's ranks, so between two ranks of one shard a strip is a single copy
// from the neighbour's field into the halo — no slot, no atomic, no
// wake-up. Only an edge whose ranks sit on different workers is a message:
// a two-slot mailbox indexed by message sequence number, guarded by two
// atomic counters:
//
//	sender:   k := sent; await consumed ≥ k−1; fill slot k&1; sent = k+1
//	receiver: k := consumed; await sent > k; copy slot k&1 out; consumed = k+1
//
// The counters carry the happens-before edges that make slot reuse
// race-free: the sender rewrites slot k&1 only after observing the
// receiver's consumed-store for message k−2, which the receiver performs
// only after it finished reading; the receiver reads a slot only after
// observing the sent-store that follows the fill. Both waits go through
// worker.await, so a shard short of a message or a slot spins and then
// parks until the peer shard publishes (sched.go). Pulling the strip across
// threads instead would need an exit handshake — the reader must finish
// before the owner computes on — turning every exchange into a barrier
// between shards; the mailbox keeps a shard one message of slack.
//
// Within a phase no copy reads what another writes (halos are written,
// interiors and — in phase 1 — the E/W halo columns phase 0 finished are
// read), so the order of ranks inside a phase is free; a phase starts only
// after the previous one has landed for the whole shard, mailbox receives
// included, which is what carries the corners.
//
// Steady-state memory discipline: everything the exchange needs per call is
// precomputed when the executor is built (which is where co-residency is
// known). Each rank owns two phasePlans (E/W and N/S) listing its mailbox
// sends, local copies and receives in a fixed order. Mailbox slots are
// allocated by an edge's first send and grow once (amortized) on the first
// wider multi-level call; after that the exchange path performs zero
// allocations, and an edge inside a shard owns no buffer at all.

// edge is one directed cross-shard mailbox: strips leave rank src and fill a
// halo of rank dst. The counters are message sequence numbers over the
// lifetime of the plans (a completed run leaves every edge balanced,
// sent == consumed).
type edge struct {
	sent, consumed atomic.Int64
	buf            [2][]float64
	clock          [2]float64 // sender's virtual clock at the send
	src, dst       int
}

// planEdge is one cross-rank strip of a phase, seen from local block bi: as
// a send, the strip (stripLen per level) is extracted from that block's
// `side` into mailbox e; as a receive, it fills the halo on that side — from
// e, or when e is nil straight from block fromBI of rank `from`, which runs on
// the same worker. A strip's rectangle inside a block's padded array — offset
// of its first element, row width, row count, row stride — is resolved here
// once, so the exchange touches neither the decomp.Block nor stripRect per
// message. chargeLen is the strip's length at POP's halo width, the words
// the virtual clock prices per level.
type planEdge struct {
	bi, side, stripLen, chargeLen int
	off, width, rows, stride      int
	e                             *edge
	from                          *Rank
	fromBI, fromOff               int
	fromStride                    int
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
// arithmetic (max-of-arrivals, ordered cost sums) bitwise identical. recvs
// lists every cross-rank strip, sends only the ones that leave the shard.
type phasePlan struct {
	sends  []planEdge
	locals []localEdge
	recvs  []planEdge
}

// popHalo is the halo width POP sends and the cost model prices (paper
// §2.2). POP pads two rings so that a preconditioner spanning blocks plus
// the matvec need one boundary update per iteration. Every preconditioner
// here is block-local and every kernel reaches one cell, so blocks pad
// decomp.DefaultHalo = 1 ring and the exchange copies that one; it charges
// strips popHalo wide, so the priced clock does not depend on how many
// rings the layout pads (DESIGN §12.6).
const popHalo = 2

// phaseSides lists the two receiving sides of each exchange phase.
var phaseSides = [2][2]int{
	{SideE, SideW},
	{SideN, SideS},
}

// buildPlans precomputes every rank's per-phase edge lists for p worker
// shards: a mailbox for each strip that crosses a shard seam, a direct
// receive for every other cross-rank strip.
func buildPlans(w *World, p int) [][2]phasePlan {
	d := w.D
	h := d.Halo
	// One mailbox per (receiving block, side) whose sender runs on another
	// worker.
	edges := make(map[haloKey]*edge)
	for _, id := range d.OceanBlocks {
		b := &d.Blocks[id]
		for side, off := range sideOffsets {
			nb := d.NeighborID(b, off[0], off[1])
			if nb < 0 {
				continue
			}
			if src := d.Blocks[nb].Rank; w.shardOf(src, p) != w.shardOf(b.Rank, p) {
				edges[haloKey{id, side}] = &edge{src: src, dst: b.Rank}
			}
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
					nbb := &d.Blocks[nb]
					if nbb.Rank == rid {
						plan.locals = append(plan.locals, localEdge{
							dstBI: i, srcBI: w.blockPos[nb], side: side})
						continue
					}
					// Incoming: my halo on `side` is filled by the
					// neighbour's strip on its opposite side (E/W neighbours
					// share NyI and N/S neighbours NxI, so the receiver's
					// dimensions describe the strip equally well). Outgoing:
					// my strip on `side` lands in that neighbour's halo.
					pe := planEdge{bi: i, side: side, stride: b.NxI + 2*h}
					pe.off, pe.width, pe.rows = stripRect(b.NxI, b.NyI, h, side, true)
					pe.stripLen = pe.width * pe.rows
					_, cw, cr := stripRect(b.NxI, b.NyI, popHalo, side, true)
					pe.chargeLen = cw * cr
					if pe.e = edges[haloKey{id, side}]; pe.e == nil {
						pe.from, pe.fromBI = w.ranks[nbb.Rank], w.blockPos[nb]
						pe.fromOff, _, _ = stripRect(nbb.NxI, nbb.NyI, h, opposite(side), false)
						pe.fromStride = nbb.NxI + 2*h
					}
					plan.recvs = append(plan.recvs, pe)
					if e := edges[haloKey{nb, opposite(side)}]; e != nil {
						pe.e, pe.from = e, nil
						pe.off, _, _ = stripRect(b.NxI, b.NyI, h, side, false)
						plan.sends = append(plan.sends, pe)
					}
				}
			}
		}
	}
	return plans
}

// Exchange refreshes the halos of one distributed field for every rank of
// the shard: fields[i] is the field set of Ranks[i], fields[i][j] the padded
// local array of its block j. Collective: every shard must call Exchange,
// outside its Shard.Each passes, in the same program order.
//
//pop:hotpath
func (sh *Shard) Exchange(fields [][][]float64) {
	if len(fields) != len(sh.Ranks) {
		payloadCount(sh.ID, len(fields), len(sh.Ranks))
	}
	for i, r := range sh.Ranks {
		r.multi[0] = fields[i]
		r.levels = r.multi[:]
	}
	sh.exchange()
}

// ExchangeMulti refreshes the halos of several fields (e.g. the levels of a
// 3-D field) in one aggregated update: each neighbour receives a single
// message carrying every level's strip, paying the latency α once and the
// bandwidth β per level — exactly how POP aggregates its 3-D halo updates.
// levels[i] is the level list of Ranks[i], levels[i][L][j] level L's padded
// array for its block j; every rank must pass the same number of levels.
//
//pop:hotpath
func (sh *Shard) ExchangeMulti(levels [][][][]float64) {
	if len(levels) != len(sh.Ranks) {
		payloadCount(sh.ID, len(levels), len(sh.Ranks))
	}
	for i, r := range sh.Ranks {
		r.levels = levels[i]
	}
	sh.exchange()
}

// exchange runs one halo update for every rank of the shard, each rank's
// levels recorded in Rank.levels. Per phase it first takes every rank's
// entry clock and posts the strips that leave the shard, then serves the
// ranks one by one — so a strip read straight from a sibling carries the
// clock that sibling had at its send, not one its own receives advanced.
//
//pop:hotpath
func (sh *Shard) exchange() {
	if sh.cur >= 0 {
		collectiveInPass(sh.ID, sh.Ranks[sh.cur].ID, "Exchange")
	}
	plans := sh.wk.ex.plans
	nlv := len(sh.Ranks[0].levels)
	for _, rk := range sh.Ranks {
		if len(rk.levels) != nlv {
			levelMismatch(sh.Ranks[0].ID, nlv, rk.ID, len(rk.levels))
		}
		for _, fields := range rk.levels {
			if len(fields) != len(rk.Blocks) {
				panic("comm: Exchange fields/blocks length mismatch")
			}
		}
	}
	for phase := 0; phase < 2; phase++ {
		for _, rk := range sh.Ranks {
			rk.sendClock = rk.clock
			plan := &plans[rk.ID][phase]
			for ei := range plan.sends {
				sh.send(rk, &plan.sends[ei], phase)
			}
		}
		for _, rk := range sh.Ranks {
			sh.receive(rk, &plans[rk.ID][phase], phase)
		}
	}
	for _, rk := range sh.Ranks {
		rk.levels, rk.multi[0] = nil, nil
	}
	sh.wk.exchanges++
}

// levelMismatch reports two ranks of one exchange disagreeing on the number
// of levels: a direct copy would index past the shorter list or leave the
// longer one's halos stale. Kept out of the hot path because it formats.
func levelMismatch(a, na, b, nb int) {
	panic(fmt.Sprintf("comm: ExchangeMulti level counts differ: rank %d passes %d, rank %d passes %d",
		a, na, b, nb))
}

// send posts rank rk's strip pe into its mailbox (a slot is free unless the
// receiver is two messages behind).
//
//pop:hotpath
func (sh *Shard) send(rk *Rank, pe *planEdge, phase int) {
	e := pe.e
	k := e.sent.Load()
	sh.wk.await(&e.consumed, k-1, waitSite{kind: waitHaloSend, seq: k, phase: phase, side: pe.side, serve: rk.ID})
	need := len(rk.levels) * pe.stripLen
	buf := e.buf[k&1]
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	for li, fields := range rk.levels {
		copyRows(buf[li*pe.stripLen:], pe.width, fields[pe.bi][pe.off:], pe.stride, pe.width, pe.rows)
	}
	e.buf[k&1], e.clock[k&1] = buf, rk.sendClock
	e.sent.Store(k + 1)
	sh.wk.notify(e.dst)
}

// receive executes one phase plan for rank rk: same-rank copies (free in the
// cost model: intra-node), then every cross-rank strip in plan order, priced
// and counted as the message it stands for whether it came through a mailbox
// or straight from a sibling's field. A strip is charged at POP's width
// (chargeLen), whatever the layout copies.
//
//pop:hotpath
func (sh *Shard) receive(rk *Rank, plan *phasePlan, phase int) {
	w := sh.w
	h := w.D.Halo
	levels := rk.levels
	entry := rk.clock

	for _, le := range plan.locals {
		dst := rk.Blocks[le.dstBI]
		src := rk.Blocks[le.srcBI]
		for _, fields := range levels {
			copyStrip(fields[le.dstBI], dst.NxI, dst.NyI,
				fields[le.srcBI], src.NxI, src.NyI, h, le.side)
		}
	}

	arrival := entry
	var charge float64
	var phaseBytes int64
	for ei := range plan.recvs {
		pe := &plan.recvs[ei]
		e := pe.e
		need := len(levels) * pe.stripLen
		var (
			data  []float64
			k     int64
			clock float64 // the sender's at its send
		)
		if e == nil {
			clock = pe.from.sendClock
		} else {
			k = e.consumed.Load()
			sh.wk.await(&e.sent, k+1, waitSite{kind: waitHaloRecv, seq: k, phase: phase, side: pe.side, serve: rk.ID})
			data, clock = e.buf[k&1], e.clock[k&1]
			if len(data) != need {
				levelMismatch(rk.ID, len(levels), e.src, len(data)/pe.stripLen)
			}
		}
		if e == nil {
			for li, fields := range levels {
				copyRows(fields[pe.bi][pe.off:], pe.stride,
					pe.from.levels[li][pe.fromBI][pe.fromOff:], pe.fromStride, pe.width, pe.rows)
			}
		} else {
			for li, fields := range levels {
				copyRows(fields[pe.bi][pe.off:], pe.stride, data[li*pe.stripLen:], pe.width, pe.width, pe.rows)
			}
			e.consumed.Store(k + 1)
			sh.wk.notify(e.src)
		}
		if clock > arrival {
			arrival = clock
		}
		bytes := int64(len(levels)*pe.chargeLen) * 8 // float64 payload at POP's width
		rk.ctr.HaloMsgs++
		rk.ctr.HaloBytes += bytes
		phaseBytes += bytes
		charge += w.Cost.P2PTime(bytes)
	}
	rk.clock = arrival + charge
	rk.ctr.THalo += rk.clock - entry
	if rk.trace != nil {
		rk.trace.Add(obs.Event{Name: obs.EvHalo, T0: entry, T1: rk.clock,
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
// and moves as one block; an E/W strip row is h (one at the default)
// elements, where memmove's call overhead — or even setting a slice up per
// row — is the whole cost, so those move with a plain indexed loop. Kept out of
// line: inlined into the exchange loop, whose registers are all spoken for,
// the two loops spill (measured at +17% on a 676-rank halo round).
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

// Exchange is the per-rank form of Shard.Exchange for World.Run programs:
// fields[i] is the padded local array for r.Blocks[i]. Collective: every
// rank must call Exchange in the same program order.
//
//pop:hotpath
func (r *Rank) Exchange(fields [][]float64) {
	r.multi[0] = fields
	r.ExchangeMulti(r.multi[:])
}

// ExchangeMulti is the per-rank form of Shard.ExchangeMulti for World.Run
// programs: levels[L][i] is level L's padded array for r.Blocks[i]; every
// rank must pass the same number of levels.
//
//pop:hotpath
func (r *Rank) ExchangeMulti(levels [][][]float64) {
	r.op, r.multis = opExchange, levels
	r.suspend()
	r.multis = nil
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
