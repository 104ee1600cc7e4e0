package faults

import (
	"math"
	"sync"
	"testing"
)

// A nil injector must be safe to consult from every hook and must never
// inject anything.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Enabled() {
		t.Fatal("nil injector reports Enabled")
	}
	if d := inj.StragglerDelay(3, 7); d != 0 {
		t.Fatalf("nil StragglerDelay = %v, want 0", d)
	}
	if inj.DropHalo(0, 0) || inj.CorruptHalo(1, 2) ||
		inj.FailReduce(2, 3) || inj.CrashRank(4, 5) {
		t.Fatal("nil injector injected a fault")
	}
	inj.Recovered("restore") // must not panic
	if got := inj.InjectedCount(ReduceFail); got != 0 {
		t.Fatalf("nil InjectedCount = %d, want 0", got)
	}
	if len(inj.Recoveries()) != 0 {
		t.Fatal("nil Recoveries non-empty")
	}
	if inj.Plan().Active() {
		t.Fatal("nil Plan active")
	}
}

// A zero plan (no probabilities) must never fire even through a live
// injector, so wiring a disabled injector into the runtime is a no-op.
func TestZeroPlanNeverFires(t *testing.T) {
	inj := New(Plan{Seed: 42})
	if inj.Enabled() {
		t.Fatal("zero plan reports Enabled")
	}
	for rank := 0; rank < 8; rank++ {
		for seq := int64(0); seq < 1000; seq++ {
			if inj.StragglerDelay(rank, seq) != 0 || inj.DropHalo(rank, seq) ||
				inj.CorruptHalo(rank, seq) || inj.FailReduce(rank, seq) ||
				inj.CrashRank(rank, seq) {
				t.Fatalf("zero plan fired at rank=%d seq=%d", rank, seq)
			}
		}
	}
}

// Same seed, same sites => same schedule; different seed => different
// schedule (overwhelmingly).
func TestScheduleDeterministicInSeed(t *testing.T) {
	plan := Plan{Seed: 7, HaloDropProb: 0.1, ReduceFailProb: 0.05, CrashProb: 0.02}
	a, b := New(plan), New(plan)
	diff := New(Plan{Seed: 8, HaloDropProb: 0.1, ReduceFailProb: 0.05, CrashProb: 0.02})
	same, mismatch := 0, 0
	for rank := 0; rank < 4; rank++ {
		for seq := int64(0); seq < 500; seq++ {
			va, vb := a.DropHalo(rank, seq), b.DropHalo(rank, seq)
			if va != vb {
				t.Fatalf("same-seed mismatch at rank=%d seq=%d", rank, seq)
			}
			if a.FailReduce(rank, seq) != b.FailReduce(rank, seq) {
				t.Fatalf("same-seed reduce mismatch at rank=%d seq=%d", rank, seq)
			}
			if va != diff.DropHalo(rank, seq) {
				mismatch++
			} else {
				same++
			}
		}
	}
	if mismatch == 0 {
		t.Fatal("different seeds produced identical halo-drop schedules")
	}
	_ = same
}

// The reduce-failure verdict must not depend on the caller's rank: every
// rank of the collective has to agree or retry loops deadlock.
func TestReduceVerdictRankIndependent(t *testing.T) {
	inj := New(Plan{Seed: 99, ReduceFailProb: 0.2})
	for seq := int64(0); seq < 400; seq++ {
		v0 := inj.FailReduce(0, seq)
		for rank := 1; rank < 16; rank++ {
			if inj.FailReduce(rank, seq) != v0 {
				t.Fatalf("reduce verdict differs across ranks at seq=%d", seq)
			}
		}
	}
	// Only the rank-0 calls may have counted.
	fired := int64(0)
	for seq := int64(0); seq < 400; seq++ {
		if inj.FailReduce(0, seq) {
			fired++
		}
	}
	// Counter doubled by the re-walk above; injections from non-zero ranks
	// must not have contributed.
	if got := inj.InjectedCount(ReduceFail); got != 2*fired {
		t.Fatalf("InjectedCount(ReduceFail) = %d, want %d (rank-0 only)", got, 2*fired)
	}
}

// Empirical rates should be in the right ballpark — the hash must behave
// like a uniform draw, not fire always/never.
func TestInjectionRatesApproximateProbabilities(t *testing.T) {
	const (
		prob  = 0.1
		n     = 40000
		slack = 0.02
	)
	inj := New(Plan{Seed: 1234, HaloDropProb: prob})
	hits := 0
	for seq := int64(0); seq < n; seq++ {
		if inj.DropHalo(int(seq%13), seq) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-prob) > slack {
		t.Fatalf("halo-drop rate %.4f, want %.2f±%.2f", rate, prob, slack)
	}
	if got := inj.InjectedCount(HaloDrop); got != int64(hits) {
		t.Fatalf("InjectedCount = %d, want %d", got, hits)
	}
}

// Straggler delay defaults to 1ms when only a probability is given, and the
// returned delay matches the plan when the draw fires.
func TestStragglerDelayDefaultsAndValue(t *testing.T) {
	inj := New(Plan{Seed: 5, StragglerProb: 0.5})
	if inj.Plan().StragglerDelay != 1e-3 {
		t.Fatalf("default StragglerDelay = %v, want 1e-3", inj.Plan().StragglerDelay)
	}
	sawDelay := false
	for seq := int64(0); seq < 200; seq++ {
		if d := inj.StragglerDelay(1, seq); d != 0 {
			if d != 1e-3 {
				t.Fatalf("delay = %v, want 1e-3", d)
			}
			sawDelay = true
		}
	}
	if !sawDelay {
		t.Fatal("p=0.5 straggler never fired in 200 draws")
	}
}

// Injected/recovered counters must be race-safe and visible through the
// snapshot accessors.
func TestCountersConcurrentAndExported(t *testing.T) {
	inj := New(Plan{Seed: 3, CrashProb: 1.0})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := int64(0); seq < 100; seq++ {
				inj.CrashRank(g, seq)
				inj.Recovered("restore")
			}
		}(g)
	}
	wg.Wait()
	if got := inj.InjectedCount(RankCrash); got != 800 {
		t.Fatalf("InjectedCount(RankCrash) = %d, want 800", got)
	}
	if got := inj.Recoveries()["restore"]; got != 800 {
		t.Fatalf("Recoveries[restore] = %d, want 800", got)
	}
	if got := inj.Injected()["rank-crash"]; got != 800 {
		t.Fatalf(`Injected()["rank-crash"] = %d, want 800`, got)
	}
}

// Class names are stable — they key Injected() and the chaos test names.
func TestClassNames(t *testing.T) {
	want := []string{"straggler", "halo-drop", "halo-corrupt", "reduce-fail", "rank-crash"}
	cs := Classes()
	if len(cs) != len(want) {
		t.Fatalf("Classes() len = %d, want %d", len(cs), len(want))
	}
	for i, c := range cs {
		if c.String() != want[i] {
			t.Fatalf("Classes()[%d].String() = %q, want %q", i, c.String(), want[i])
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Fatalf("unknown class String() = %q", Class(99).String())
	}
}
