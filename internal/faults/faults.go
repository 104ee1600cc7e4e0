// Package faults is the deterministic fault-injection layer: a seeded,
// per-rank, per-phase injector that the communication runtime and the
// solvers consult to introduce the failures real fabrics produce — straggler
// delays, dropped or corrupted halo exchanges, failed global reductions, and
// whole-rank crashes mid-solve.
//
// Three properties shape the design:
//
//   - Determinism. Every verdict is a pure hash of (seed, class, rank,
//     sequence number); there is no time, no math/rand, no shared mutable
//     draw state. Re-running the same session operation sequence with the
//     same seed replays the identical fault schedule, which is what makes
//     chaos tests reproducible and recovery bugs bisectable.
//
//   - Collective agreement where the fault is collective. A reduction
//     failure is keyed on the reduction's global sequence number alone, so
//     every rank draws the same verdict and a detect-and-retry loop re-enters
//     the collective in lockstep instead of deadlocking.
//
//   - Zero cost when absent. A nil *Injector is a valid disabled injector:
//     every method is nil-safe and the runtime's hooks reduce to one pointer
//     comparison, so a fault-free run with no injector wired in is bitwise
//     identical to a build that never heard of this package.
//
// Injection and recovery counts, by class and by recovery kind, are read
// back with Injected and Recoveries.
package faults

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Class enumerates the injectable fault classes.
type Class int

const (
	// Straggler delays one rank's entry into a global reduction, the OS-jitter
	// amplification the paper's §5.2 straggler analysis studies.
	Straggler Class = iota
	// HaloDrop discards the strips a rank received in one halo-exchange
	// phase, leaving its halos stale for the following iteration.
	HaloDrop
	// HaloCorrupt poisons a received halo strip with NaN, the detectable
	// payload-corruption case the solver's tripwire must catch.
	HaloCorrupt
	// ReduceFail fails one global reduction on every rank at once (a lost
	// or timed-out collective), triggering the solver's detect-and-retry.
	ReduceFail
	// RankCrash loses one rank's solver state between convergence checks,
	// forcing a global rollback to the last iteration-state checkpoint.
	RankCrash

	numClasses
)

// String returns the class name used in metric labels and reports.
func (c Class) String() string {
	switch c {
	case Straggler:
		return "straggler"
	case HaloDrop:
		return "halo-drop"
	case HaloCorrupt:
		return "halo-corrupt"
	case ReduceFail:
		return "reduce-fail"
	case RankCrash:
		return "rank-crash"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists every injectable fault class, in declaration order.
func Classes() []Class {
	return []Class{Straggler, HaloDrop, HaloCorrupt, ReduceFail, RankCrash}
}

// Plan configures deterministic fault injection. The zero value injects
// nothing. Probabilities are per draw site: per (rank, reduction) for
// stragglers, per (rank, exchange phase) for halo faults, per reduction for
// reduction failures, and per (rank, convergence check) for crashes.
type Plan struct {
	// Seed selects the fault schedule; equal seeds replay equal schedules
	// for equal operation sequences.
	Seed uint64
	// StragglerProb is the probability a rank enters a reduction late.
	StragglerProb float64
	// StragglerDelay is the virtual-clock delay (seconds) a straggler adds;
	// New defaults it to 1ms when a probability is set without a delay.
	StragglerDelay float64
	// HaloDropProb discards a rank's received halo strips for one phase.
	HaloDropProb float64
	// HaloCorruptProb poisons one received halo strip with NaN.
	HaloCorruptProb float64
	// ReduceFailProb fails one global reduction for every rank at once.
	ReduceFailProb float64
	// CrashProb loses one rank's solver state at a convergence check.
	CrashProb float64
}

// Active reports whether the plan can inject anything.
func (p Plan) Active() bool {
	return p.StragglerProb > 0 || p.HaloDropProb > 0 || p.HaloCorruptProb > 0 ||
		p.ReduceFailProb > 0 || p.CrashProb > 0
}

// Injector draws deterministic per-site fault verdicts and counts what it
// injected and what the resilience layers recovered. Safe for concurrent use
// by the runtime's workers; a nil *Injector injects nothing.
type Injector struct {
	plan     Plan
	injected [numClasses]atomic.Int64

	recMu sync.Mutex
	rec   map[string]int64
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	if plan.StragglerProb > 0 && plan.StragglerDelay == 0 {
		plan.StragglerDelay = 1e-3
	}
	return &Injector{plan: plan, rec: make(map[string]int64)}
}

// Enabled reports whether the injector exists and its plan can fire.
func (i *Injector) Enabled() bool { return i != nil && i.plan.Active() }

// Plan returns the injector's configuration (zero value when nil).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// hit draws the deterministic verdict for one site and counts a hit. The
// draw is a splitmix64-style hash of (seed, class, rank, seq) mapped to
// [0, 1) — no state, no locks, bitwise reproducible.
func (i *Injector) hit(c Class, rank int, seq int64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	x := i.plan.Seed ^
		(uint64(c)+1)*0xA24BAED4963EE407 ^
		(uint64(rank)+0x9E3779B97F4A7C15)*0x9FB21C651E98DF25 ^
		uint64(seq)*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if float64(x>>11)/(1<<53) >= prob {
		return false
	}
	i.injected[c].Add(1)
	return true
}

// StragglerDelay returns the virtual-clock delay (seconds) to add before
// rank enters reduction seq: zero almost always, Plan.StragglerDelay when
// the straggler draw fires. Nil-safe.
func (i *Injector) StragglerDelay(rank int, seq int64) float64 {
	if i == nil || !i.hit(Straggler, rank, seq, i.plan.StragglerProb) {
		return 0
	}
	return i.plan.StragglerDelay
}

// DropHalo reports whether rank's received halo strips in exchange phase seq
// should be discarded. Nil-safe.
func (i *Injector) DropHalo(rank int, seq int64) bool {
	return i != nil && i.hit(HaloDrop, rank, seq, i.plan.HaloDropProb)
}

// CorruptHalo reports whether one of rank's received halo strips in exchange
// phase seq should be NaN-poisoned. Nil-safe.
func (i *Injector) CorruptHalo(rank int, seq int64) bool {
	return i != nil && i.hit(HaloCorrupt, rank, seq, i.plan.HaloCorruptProb)
}

// FailReduce reports whether global reduction seq fails. The verdict depends
// on seq alone — every rank of the collective draws the same answer, so a
// retry loop re-enters the reduction in lockstep. rank is used only to count
// the injection once (on rank 0) rather than once per rank. Nil-safe.
func (i *Injector) FailReduce(rank int, seq int64) bool {
	if i == nil || i.plan.ReduceFailProb <= 0 {
		return false
	}
	if rank != 0 {
		// Same draw, no count: replicate hit without the counter.
		return i.drawOnly(ReduceFail, 0, seq, i.plan.ReduceFailProb)
	}
	return i.hit(ReduceFail, 0, seq, i.plan.ReduceFailProb)
}

// drawOnly is hit without the injection counter (for ranks replicating a
// collective verdict that rank 0 already counted).
func (i *Injector) drawOnly(c Class, rank int, seq int64, prob float64) bool {
	x := i.plan.Seed ^
		(uint64(c)+1)*0xA24BAED4963EE407 ^
		(uint64(rank)+0x9E3779B97F4A7C15)*0x9FB21C651E98DF25 ^
		uint64(seq)*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < prob
}

// CrashRank reports whether rank loses its solver state at the convergence
// check identified by seq (the rank's collective sequence number, which
// advances across solves, so successive solves draw fresh schedules).
// Nil-safe.
func (i *Injector) CrashRank(rank int, seq int64) bool {
	return i != nil && i.hit(RankCrash, rank, seq, i.plan.CrashProb)
}

// Recovered counts one successful recovery action of the given kind
// ("reduce-retry", "restore", "reconverge", "re-eig", "chrongear",
// "request-retry"). Nil-safe; callers inside shard programs must invoke it
// from one shard only to keep counts per event rather than per shard.
func (i *Injector) Recovered(kind string) {
	if i == nil {
		return
	}
	i.recMu.Lock()
	i.rec[kind]++
	i.recMu.Unlock()
}

// InjectedCount returns how many faults of class c have fired (0 when nil).
func (i *Injector) InjectedCount(c Class) int64 {
	if i == nil || c < 0 || c >= numClasses {
		return 0
	}
	return i.injected[c].Load()
}

// Injected returns the per-class injection counts, keyed by class name.
func (i *Injector) Injected() map[string]int64 {
	out := make(map[string]int64, int(numClasses))
	for _, c := range Classes() {
		out[c.String()] = i.InjectedCount(c)
	}
	return out
}

// Recoveries returns the per-kind recovery counts recorded so far.
func (i *Injector) Recoveries() map[string]int64 {
	if i == nil {
		return map[string]int64{}
	}
	i.recMu.Lock()
	defer i.recMu.Unlock()
	return maps.Clone(i.rec)
}
