package fleet

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/serve"
)

// cloneResponse deep-copies the parts of a fleet response a caller can
// write through: X, the trace's slices and the per-rank stats.
func cloneResponse(r Response) Response {
	r.X = slices.Clone(r.X)
	if r.Result.Trace != nil {
		t := *r.Result.Trace
		t.Residuals = slices.Clone(t.Residuals)
		t.EigBounds = slices.Clone(t.EigBounds)
		t.Intervals = slices.Clone(t.Intervals)
		r.Result.Trace = &t
	}
	r.Result.Stats.PerRank = slices.Clone(r.Result.Stats.PerRank)
	return r
}

// scribble writes garbage through every slice a response hands its caller.
func scribble(r Response) {
	r.X[0] = math.Inf(1)
	for i := range r.Result.Trace.Residuals {
		r.Result.Trace.Residuals[i].RelResidual = 42
	}
	for i := range r.Result.Trace.EigBounds {
		r.Result.Trace.EigBounds[i].Nu = -1
	}
	for i := range r.Result.Trace.Intervals {
		r.Result.Trace.Intervals[i].Mu = -1
	}
	for i := range r.Result.Stats.PerRank {
		r.Result.Stats.PerRank[i].Flops = -1
	}
}

// sameResponse reports whether a replay equals the original field for
// field, with X compared bit for bit.
func sameResponse(t *testing.T, what string, got, want Response) {
	t.Helper()
	if !bitsEqual(got.X, want.X) {
		t.Errorf("%s: X differs from the original miss", what)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("%s: Result differs from the original miss:\n got %+v\nwant %+v", what, got.Result, want.Result)
	}
}

// TestCacheReplayIsNotPoisonedByCallers: a caller that writes through its
// miss response, or through a hit, cannot change what later hits replay —
// not X, not the trace, not the per-rank stats.
func TestCacheReplayIsNotPoisonedByCallers(t *testing.T) {
	f, err := New(Options{Workers: 1, Worker: serve.Options{Solver: core.Options{Tol: 1e-6}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	req := Request{Request: serve.Request{
		Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: fleetRHS(t, 1)[0],
	}}
	miss, err := f.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tr := miss.Result.Trace; miss.Cache != "miss" || len(tr.Residuals) == 0 || len(tr.EigBounds) == 0 || len(miss.Result.Stats.PerRank) == 0 {
		t.Fatalf("miss: Cache %q, %d residuals, %d bounds, %d ranks",
			miss.Cache, len(tr.Residuals), len(tr.EigBounds), len(miss.Result.Stats.PerRank))
	}
	want := cloneResponse(miss)
	scribble(miss)
	for i := range 2 {
		hit, err := f.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if hit.Cache != "hit" {
			t.Fatalf("repeat %d: Cache = %q, want hit", i, hit.Cache)
		}
		sameResponse(t, "hit after callers wrote through earlier responses", hit, want)
		scribble(hit)
	}

	// The P-CSI interval never adapts on this solve, so its trace has no
	// interval events: a hand-made entry covers them.
	c := newResultCache(4)
	b := []float64{1, 2, 3}
	key := api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, b, nil)
	res := core.Result{Iterations: 7, Stats: comm.Stats{PerRank: []comm.Counters{{Flops: 9}}},
		Trace: &core.SolveTrace{
			Residuals: []core.ResidualPoint{{Iter: 10, RelResidual: 0.5}},
			EigBounds: []core.EigBound{{Step: 1, Nu: 0.1, Mu: 2}},
			Intervals: []core.IntervalEvent{{Iter: 20, Kind: "widen-nu", Nu: 0.05, Mu: 2}},
		}}
	put := Response{Response: serve.Response{Result: res, X: []float64{4, 5, 6}}}
	want = cloneResponse(put)
	c.put(key, put.Result, put.X, b)
	scribble(put)
	for range 2 {
		r, x, ok := c.get(key, b)
		if !ok {
			t.Fatal("hand-made entry missed")
		}
		hit := Response{Response: serve.Response{Result: r, X: x}}
		sameResponse(t, "hand-made entry", hit, want)
		scribble(hit)
	}
}

// TestCacheStoresOnlyWhatTheRequestLacks pins the compact entry: on the
// test grid an entry keeps exactly the words where x's bits differ from
// b's — the ocean points, since the solver leaves x = b on land —
// consecutive entries with equal cut lists share one, and every hit
// rebuilds its miss's answer bit for bit. Hand-made entries cover the run
// edges the grid never produces.
func TestCacheStoresOnlyWhatTheRequestLacks(t *testing.T) {
	g, err := grid.ByName(grid.PresetTest)
	if err != nil {
		t.Fatal(err)
	}
	var oceanCuts []int32 // the runs of ocean points
	for k, m := range g.Mask {
		if m && (k == 0 || !g.Mask[k-1]) {
			oceanCuts = append(oceanCuts, int32(k))
		}
		if m && (k == len(g.Mask)-1 || !g.Mask[k+1]) {
			oceanCuts = append(oceanCuts, int32(k+1))
		}
	}

	f, err := New(Options{Workers: 2, Worker: serve.Options{Solver: core.Options{Tol: 1e-6}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	keys := []struct {
		method  core.Method
		precond core.PrecondType
	}{
		{core.MethodChronGear, core.PrecondDiagonal},
		{core.MethodChronGear, core.PrecondEVP},
		{core.MethodPCSI, core.PrecondDiagonal},
		{core.MethodPCSI, core.PrecondEVP},
	}
	rhs := fleetRHS(t, 64)
	reqs := make([]Request, len(rhs))
	misses := make([][]float64, len(rhs))
	for i, b := range rhs {
		k := keys[i%len(keys)]
		reqs[i] = Request{Request: serve.Request{Grid: grid.PresetTest, Method: k.method, Precond: k.precond, B: b}}
		resp, err := f.Solve(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "miss" {
			t.Fatalf("request %d: Cache = %q, want miss", i, resp.Cache)
		}
		misses[i] = resp.X
	}
	// The LRU's back is the first miss.
	var prev *cacheEntry
	oceanEntries, shared := 0, 0
	i := 0
	for el := f.cache.lru.Back(); el != nil; el, i = el.Prev(), i+1 {
		e := el.Value.(*cacheEntry)
		stored := make([]bool, g.N())
		for r := 0; r < len(e.cuts); r += 2 {
			for k := e.cuts[r]; k < e.cuts[r+1]; k++ {
				stored[k] = true
			}
		}
		want := 0
		for k, s := range stored {
			differs := math.Float64bits(misses[i][k]) != math.Float64bits(rhs[i][k])
			if s != differs {
				t.Fatalf("request %d, point %d (ocean %v): stored %v, x differs from b %v", i, k, g.Mask[k], s, differs)
			}
			if differs {
				want++
			}
		}
		if len(e.words) != want {
			t.Fatalf("request %d: entry keeps %d words for %d differing points", i, len(e.words), want)
		}
		if slices.Equal(e.cuts, oceanCuts) {
			oceanEntries++
		}
		if prev != nil && slices.Equal(prev.cuts, e.cuts) {
			if &prev.cuts[0] != &e.cuts[0] {
				t.Fatalf("requests %d and %d: equal cut lists kept twice", i-1, i)
			}
			shared++
		}
		prev = e
	}
	// A right-hand side that is 0 where the solution is exactly 0 stores
	// one word fewer than the ocean; most store them all, one cut list.
	if oceanEntries < len(rhs)/2 || shared < len(rhs)/2 {
		t.Fatalf("%d of %d entries keep the ocean's runs; %d consecutive pairs share a cut list",
			oceanEntries, len(rhs), shared)
	}
	for i, req := range reqs {
		resp, err := f.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "hit" || !bitsEqual(resp.X, misses[i]) {
			t.Fatalf("request %d: Cache %q, replay equal to the miss: %v", i, resp.Cache, bitsEqual(resp.X, misses[i]))
		}
	}

	// Hand-made entries: b and x over eight words, where x's words differing
	// from b's are the runs an entry stores.
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	b := []float64{negZero, 1, nan, 2, 3, negZero, 4, nan}
	cases := []struct {
		name  string
		x     []float64
		words int
	}{
		{"x = b on land, where b is -0 and a NaN payload", []float64{negZero, 9, nan, 9, 9, negZero, 9, nan}, 4},
		{"x = b at some ocean points", []float64{negZero, 9, nan, 2, 9, negZero, 4, 9}, 3},
		{"x = b everywhere", slices.Clone(b), 0},
		{"x differs from b everywhere", []float64{0, 9, math.NaN(), 9, 9, 0, 9, 0}, len(b)},
	}
	c := newResultCache(len(cases))
	for i, tc := range cases {
		key := api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, i, 1e-13, b, nil)
		c.put(key, core.Result{Iterations: i}, tc.x, b)
		e := c.entries[key].Value.(*cacheEntry)
		if len(e.words) != tc.words {
			t.Errorf("%s: entry keeps %d words, want %d", tc.name, len(e.words), tc.words)
		}
		res, x, ok := c.get(key, slices.Clone(b))
		if !ok || res.Iterations != i || !bitsEqual(x, tc.x) {
			t.Errorf("%s: get = %v, %v, ok %v; want %v", tc.name, res.Iterations, x, ok, tc.x)
		}
		if _, _, ok := c.get(key, b[:len(b)-1]); ok {
			t.Errorf("%s: a b of another length replayed the entry", tc.name)
		}
	}
}

// TestCacheGetRacesRePut: readers copy a hit out after unlocking while
// writers re-put the same key with another answer. Each read is one of the
// two answers whole — its Result with its own x — never a mix. Under -race
// it also pins that a re-put never writes an entry a reader may hold.
func TestCacheGetRacesRePut(t *testing.T) {
	const n = 512
	b := make([]float64, n)
	answers := [2][]float64{make([]float64, n), make([]float64, n)}
	for k := range b {
		b[k] = float64(k)
		answers[0][k], answers[1][k] = b[k], b[k]
		switch {
		case k%3 == 0: // answer 0 differs on every third word
			answers[0][k] = -float64(k) - 1
		case k%5 == 0: // answer 1 on every fifth of the rest
			answers[1][k] = float64(k) + 0.5
		}
	}
	c := newResultCache(2)
	key := api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, b, nil)
	c.put(key, core.Result{Iterations: 0}, answers[0], b)

	const rounds = 300
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				a := (i + w) % 2
				c.put(key, core.Result{Iterations: a}, answers[a], b)
			}
		}()
	}
	const readers = 4
	errs := make(chan string, readers) // one send at most per reader
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				res, x, ok := c.get(key, b)
				if !ok || res.Iterations < 0 || res.Iterations > 1 || !bitsEqual(x, answers[res.Iterations]) {
					errs <- "a get returned neither answer whole"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
