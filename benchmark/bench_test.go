package main

import (
	"io"
	"math"
	"testing"

	pop "repro"
	"repro/internal/api"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {75, 8}, {90, 9}, {99, 10}, {100, 10}, {1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

// The tail a report may quote is the highest percentile that still has ten
// samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, // p50 of 19 is rank 10: nine beyond
		{20, 50},
		{39, 50}, // p75 of 39 is rank 30: nine beyond
		{40, 75},
		{64, 75},
		{100, 90},
		{1000, 99},
		{10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(48, 75); got != 12 {
		t.Errorf("samplesBeyond(48, 75) = %d, want 12", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) is
// [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	got := quartileSpread([]float64{20, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 35, End: 45},  // inside both
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past the parent
		{ID: 6, Parent: 2, Name: "leaf", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	// Children cover [10,70) and [90,100): 70 of the parent's 100.
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 40, 4: 10, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNilAndCap(t *testing.T) {
	var off *recorder
	off.timed("x", 0, 0, func() {})
	off.end(off.begin("y", 0, 0))

	r := newRecorder()
	root := r.begin("root", 0, 0)
	r.timed("child", root, 1, func() {})
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].End < r.spans[1].End {
		t.Errorf("spans = %+v", r.spans)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundedMetric{Name: "solve_ms_p50", Better: "lower", Bound: 0.05}
	higher := boundedMetric{Name: "solves_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{80, 120, 100, 90, 110}
	for _, c := range []struct {
		name string
		a, b []float64
		m    boundedMetric
		want string
	}{
		{"within bound", steady, scale(steady, 1.03), lower, verdictSame},
		{"slower", steady, scale(steady, 1.08), lower, verdictWorse},
		{"faster", steady, scale(steady, 0.9), lower, verdictBetter},
		{"less throughput", steady, scale(steady, 0.9), higher, verdictWorse},
		{"more throughput", steady, scale(steady, 1.1), higher, verdictBetter},
		{"noise hides it", noisy, scale(noisy, 1.08), lower, verdictUnresolved},
		{"noisy but every run better", noisy, scale(noisy, 0.5), lower, verdictBetter},
	} {
		if got, _, _ := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}

	rec := func(w string, v float64, failed int) record {
		return record{Workload: w, report: report{Failed: failed,
			Metrics: map[string]metric{lower.Name: {v, "ms"}}}}
	}
	var ra, rb []record
	for _, w := range workloads {
		ra = append(ra, rec(w.name, 100, 0))
		rb = append(rb, rec(w.name, 101, 0))
	}
	if worse, err := compareRecords(ra, rb, []boundedMetric{lower}, io.Discard); err != nil || worse != 0 {
		t.Errorf("equal runs: worse = %d, err = %v", worse, err)
	}
	rb[0] = rec(workloads[0].name, 101, 1) // one more failure is worse whatever the time
	rb[1] = rec(workloads[1].name, 120, 0)
	if worse, _ := compareRecords(ra, rb, []boundedMetric{lower}, io.Discard); worse != 2 {
		t.Errorf("one failure and one slowdown: worse = %d, want 2", worse)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	w, _ := workloadByName("fleet_miss_test64")
	build := func(seed int64) []problem {
		in, err := newInputs(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.ps
	}
	hash := func(p problem) api.CacheKey {
		return api.HashSolve(w.grid, w.key.method, w.key.precond, pop.Float64, 0, solveTol, p.b, nil)
	}
	a, again, other := build(1), build(1), build(2)
	for i := range a {
		for k := range a[i].b {
			if math.Float64bits(a[i].b[k]) != math.Float64bits(again[i].b[k]) ||
				math.Float64bits(a[i].xTrue[k]) != math.Float64bits(again[i].xTrue[k]) {
				t.Fatalf("problem %d differs at point %d between two builds from seed 1", i, k)
			}
		}
		if hash(a[i]) == hash(other[i]) {
			t.Errorf("problem %d hashes the same from seeds 1 and 2", i)
		}
	}
	if hash(a[0]) == hash(a[1]) {
		t.Error("two problems of one seed hash the same")
	}
}

func TestExactCountsRepeat(t *testing.T) {
	w := workload{name: "cg_diag_test", grid: pop.GridTest, cores: 12,
		key: solveKey{pop.MethodChronGear, pop.PrecondDiagonal}, clients: 1, tailPct: 75}
	measure := func() map[string]metric {
		in, err := newInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		l := &ledger{m: make(map[string]metric)}
		lay, err := l.probeSetup(w, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.probeSolve(w, in, lay, 0); err != nil {
			t.Fatal(err)
		}
		// A quarter-length run of the workload itself must verify.
		target, _, err := setup(w, in, 1, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res := closedLoop(target, w.clients, 1, nil, 0); res.failed != 0 {
			t.Fatalf("workload operations failed: %v", res.firstErr)
		}
		return l.m
	}
	a, b := measure(), measure()
	checked := 0
	for _, name := range exactCounts {
		ma, ok := a[name]
		if !ok {
			continue // measured by a probe this test does not run
		}
		checked++
		if math.Float64bits(ma.Value) != math.Float64bits(b[name].Value) {
			t.Errorf("%s = %v then %v: an exact count must repeat", name, ma.Value, b[name].Value)
		}
	}
	if checked < 13 {
		t.Errorf("only %d exact counts were measured by the set-up and solve probes, want 13", checked)
	}
	if a["core.iters_per_solve"].Value < 10 {
		t.Errorf("core.iters_per_solve = %v, want a real solve", a["core.iters_per_solve"].Value)
	}
}
