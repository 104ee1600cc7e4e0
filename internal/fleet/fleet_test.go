package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/stencil"
)

// fleetRHS builds deterministic, distinct right-hand sides on the test grid.
func fleetRHS(t *testing.T, n int) [][]float64 {
	t.Helper()
	g, err := grid.ByName(grid.PresetTest)
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]float64, n)
	for i := range bs {
		b := make([]float64, g.N())
		for k, ocean := range g.Mask {
			if ocean {
				x := uint64(k)*2654435761 + uint64(i+1)*0x9E3779B9
				x ^= x >> 13
				b[k] = float64(x%1000)/500 - 1
			}
		}
		bs[i] = b
	}
	return bs
}

// directSolve runs one solve straight on a core.Session — no serve layer,
// no fleet — the golden the fleet must match bitwise.
func directSolve(t *testing.T, method core.Method, precond core.PrecondType, tol float64, b []float64) (core.Result, []float64) {
	t.Helper()
	g, err := grid.ByName(grid.PresetTest)
	if err != nil {
		t.Fatal(err)
	}
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(g.Tau()))
	d, err := decomp.New(g, g.Nx, g.Ny, decomp.DefaultHalo)
	if err != nil {
		t.Fatal(err)
	}
	d.AssignOnePerRank()
	w, err := comm.NewWorld(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(g, op, d, w, core.Options{Tol: tol, Precond: precond})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Setup(); err != nil {
		t.Fatal(err)
	}
	if method == core.MethodPCSI {
		if _, _, _, err := sess.EstimateEigenvalues(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, x, err := sess.SolveContext(context.Background(), method, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	xc := make([]float64, len(x))
	copy(xc, x)
	return res, xc
}

func closeFleet(t *testing.T, f *Fleet) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFleetBitwiseIdenticalToDirectCore is the golden gate: a fault-free
// solve through the full fleet stack (router → ring → worker → pooled
// session) must produce the same solution bits, iteration count and
// residual as a bare core.Session solving the same request — and a cache
// hit must replay exactly those bits again.
func TestFleetBitwiseIdenticalToDirectCore(t *testing.T) {
	const tol = 1e-6
	rhs := fleetRHS(t, 2)
	goldRes, goldX := directSolve(t, core.MethodPCSI, core.PrecondEVP, tol, rhs[0])

	f, err := New(Options{Workers: 2, Worker: serve.Options{Solver: core.Options{Tol: tol}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	req := Request{Request: serve.Request{
		Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: rhs[0],
	}}
	miss, err := f.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cache != "miss" {
		t.Fatalf("first solve Cache = %q, want miss", miss.Cache)
	}
	if miss.Shard < 0 || miss.Shard > 1 {
		t.Fatalf("miss shard = %d", miss.Shard)
	}
	if !bitsEqual(miss.X, goldX) {
		t.Fatal("fleet miss solution differs bitwise from direct core solve")
	}
	if miss.Result.Iterations != goldRes.Iterations || miss.Result.RelResidual != goldRes.RelResidual {
		t.Fatalf("fleet miss result (%d iters, %g) != direct (%d iters, %g)",
			miss.Result.Iterations, miss.Result.RelResidual, goldRes.Iterations, goldRes.RelResidual)
	}

	hit, err := f.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache != "hit" {
		t.Fatalf("second solve Cache = %q, want hit", hit.Cache)
	}
	if hit.Shard != -1 {
		t.Fatalf("cache hit shard = %d, want -1 (no worker consulted)", hit.Shard)
	}
	if !bitsEqual(hit.X, goldX) {
		t.Fatal("cache hit solution differs bitwise from direct core solve")
	}
	// The replayed Result is the stored one verbatim (same iterations,
	// residual, virtual-time stats — everything).
	if !reflect.DeepEqual(hit.Result, miss.Result) {
		t.Fatal("cache hit Result differs from the solve that populated it")
	}
	// The hit must not alias cache memory: mutating the caller's copy must
	// not poison later replays.
	hit.X[0] = math.Inf(1)
	hit2, err := f.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(hit2.X, goldX) {
		t.Fatal("cache replay corrupted by a caller mutating a previous hit")
	}

	// A different RHS is a different content hash — never conflated.
	other, err := f.Solve(context.Background(), Request{Request: serve.Request{
		Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: rhs[1],
	}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cache != "miss" {
		t.Fatalf("distinct RHS Cache = %q, want miss", other.Cache)
	}
	if bitsEqual(other.X, goldX) {
		t.Fatal("distinct RHS returned the cached solution")
	}
}

// TestFleetNoCacheBypassesLookup checks NoCache skips the cache read but
// still populates the cache for later readers.
func TestFleetNoCacheBypassesLookup(t *testing.T) {
	rhs := fleetRHS(t, 1)
	f, err := New(Options{Workers: 1, Worker: serve.Options{Solver: core.Options{Tol: 1e-6}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	req := Request{Request: serve.Request{Grid: grid.PresetTest, Method: core.MethodChronGear, B: rhs[0]}}
	req.NoCache = true
	for i := 0; i < 2; i++ {
		resp, err := f.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != "miss" {
			t.Fatalf("NoCache solve %d Cache = %q, want miss", i, resp.Cache)
		}
	}
	req.NoCache = false
	resp, err := f.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Fatalf("post-NoCache solve Cache = %q, want hit (NoCache still populates)", resp.Cache)
	}
}

// TestFleetConcurrentIdenticalRequests is the end-to-end -race exercise:
// many goroutines fire the same request; every response must be bitwise
// identical and the router books each request as exactly one of hit/miss.
func TestFleetConcurrentIdenticalRequests(t *testing.T) {
	rhs := fleetRHS(t, 1)
	f, err := New(Options{Workers: 2, Worker: serve.Options{Solver: core.Options{Tol: 1e-6}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	const n = 16
	resps := make([]Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = f.Solve(context.Background(), Request{Request: serve.Request{
				Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: rhs[0],
			}})
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bitsEqual(resps[i].X, resps[0].X) {
			t.Fatalf("request %d solution differs bitwise", i)
		}
		switch resps[i].Cache {
		case "hit", "miss":
		default:
			t.Fatalf("request %d Cache = %q", i, resps[i].Cache)
		}
	}
	st := f.Stats(context.Background())
	if booked := st.Fleet.CacheHits + st.Fleet.CacheMisses; booked != n {
		t.Fatalf("hits+misses = %d, want %d", booked, n)
	}
	if st.Fleet.CacheMisses < 1 {
		t.Fatal("no cache miss booked — someone must have solved it")
	}
}

// TestCacheLRUDeterministic checks eviction order is exactly
// least-recently-used, with gets refreshing recency.
func TestCacheLRUDeterministic(t *testing.T) {
	c := newResultCache(3)
	keys := make([]api.CacheKey, 4)
	rhs := func(i int) []float64 { return []float64{-1 - float64(i)} } // key i's b
	for i := range keys {
		keys[i] = api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, rhs(i), nil)
		if i < 3 {
			c.put(keys[i], core.Result{Iterations: i}, []float64{float64(i)}, rhs(i))
		}
	}
	// Touch key0 so key1 is now the LRU tail.
	if _, _, ok := c.get(keys[0], rhs(0)); !ok {
		t.Fatal("key0 missed")
	}
	c.put(keys[3], core.Result{Iterations: 3}, []float64{3}, rhs(3))
	if _, _, ok := c.get(keys[1], rhs(1)); ok {
		t.Fatal("LRU evicted the wrong entry: key1 should be gone")
	}
	for _, i := range []int{0, 2, 3} {
		if res, x, ok := c.get(keys[i], rhs(i)); !ok || res.Iterations != i || x[0] != float64(i) {
			t.Fatalf("key%d: ok=%v res=%+v x=%v", i, ok, res, x)
		}
	}
	if st := c.stats(); st.evictions != 1 || st.entries != 3 {
		t.Fatalf("stats after eviction: %+v", st)
	}

	// The sizing rule the cache documents: a cyclic walk over capacity+1
	// keys evicts each entry just before it is asked for again, so the hit
	// ratio is 0, not capacity/(capacity+1).
	for round := 0; round < 3; round++ {
		for i, k := range keys {
			if _, _, ok := c.get(k, rhs(i)); ok && round > 0 {
				t.Fatalf("round %d: key%d hit while cycling 4 keys through 3 entries", round, i)
			}
			c.put(k, core.Result{Iterations: i}, []float64{float64(i)}, rhs(i))
		}
	}
}

// TestRingProperties checks the consistent-hash ring's contract: total
// coverage, deterministic lookups, and bounded remapping when the fleet
// grows.
func TestRingProperties(t *testing.T) {
	r4 := newRing(4)
	keys := make([]string, 0, 400)
	for g := 0; g < 20; g++ {
		for m := 0; m < 20; m++ {
			keys = append(keys, fmt.Sprintf("grid%d/method%d/evp", g, m))
		}
	}
	counts := make([]int, 4)
	for _, k := range keys {
		w := r4.lookup(k)
		counts[w]++
		if w2 := r4.lookup(k); w2 != w {
			t.Fatalf("lookup(%q) unstable: %d then %d", k, w, w2)
		}
	}
	for w, n := range counts {
		if n == 0 {
			t.Fatalf("worker %d owns no keys (counts %v)", w, counts)
		}
	}

	// Growing 4 → 5 must remap roughly 1/5 of keys, not reshuffle the world.
	r5 := newRing(5)
	moved := 0
	for _, k := range keys {
		if r5.lookup(k) != r4.lookup(k) {
			moved++
		}
	}
	if frac := float64(moved) / float64(len(keys)); frac > 0.45 {
		t.Fatalf("growing the ring remapped %.0f%% of keys — not consistent", frac*100)
	}
}

// TestFleetFailoverOnShed checks the router does not fail over: when the
// home shard sheds part of a burst (a full queue) those requests answer
// serve.ErrOverloaded — what an overloaded single service returns — and the
// other shard never sees a request. Hard errors propagate the same way.
func TestFleetFailoverOnShed(t *testing.T) {
	// Unpreconditioned solves of an ill-conditioned operator (huge Tau) run
	// out their 500 iterations on one session behind a 2-deep queue: the
	// worker cannot outrun a burst (as in serve's TestOverloadShedsNeverBlocks).
	f, err := New(Options{Workers: 2, Worker: serve.Options{
		MaxSessionsPerKey: 1, MaxQueue: 2, MaxBatch: 1, Tau: 200000, Threads: 1,
		Solver: core.Options{Tol: 1e-12, MaxIters: 500}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	req := Request{Request: serve.Request{Grid: grid.PresetTest, Method: core.MethodChronGear,
		Precond: core.PrecondIdentity, B: fleetRHS(t, 1)[0]}, NoCache: true}
	home, err := f.HomeShard(req.Request)
	if err != nil {
		t.Fatal(err)
	}
	var shed, failed int64 // failed is what the router must book as errors
	// Warm the pool so the burst is not staggered by the session build.
	if _, err := f.Solve(context.Background(), req); err != nil {
		if !errors.Is(err, core.ErrNotConverged) {
			t.Fatal(err)
		}
		failed++
	}

	const callers = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := make(chan struct{})
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := f.Solve(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
			}
			switch {
			case err == nil || errors.Is(err, core.ErrNotConverged):
			case errors.Is(err, serve.ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if shed == 0 {
		t.Fatal("no request was shed through a 2-deep queue with 30 callers")
	}

	// A hard error from the home shard: an RHS of the wrong length.
	bad := req
	bad.B = []float64{1}
	if _, err := f.Solve(context.Background(), bad); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("a one-point RHS: Solve returned %v, want ErrBadSpec", err)
	}
	failed++

	if n := f.workers[1-home].Snapshot().Requests; n != 0 {
		t.Fatalf("the other shard saw %d requests, want 0 (no failover)", n)
	}
	if st := f.Stats(context.Background()); st.Fleet.Errors != failed || st.Fleet.Failovers != 0 {
		t.Fatalf("errors/failovers = %d/%d, want %d/0", st.Fleet.Errors, st.Fleet.Failovers, failed)
	}
}

// TestFleetStatsAggregation checks /v1/stats math: Totals is the field-wise
// sum of worker counters and the router books every request.
func TestFleetStatsAggregation(t *testing.T) {
	rhs := fleetRHS(t, 3)
	f, err := New(Options{Workers: 2, Worker: serve.Options{Solver: core.Options{Tol: 1e-6}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)

	for i, b := range rhs {
		for j := 0; j <= i; j++ { // 1+2+3 requests, with repeats hitting the cache
			if _, err := f.Solve(context.Background(), Request{Request: serve.Request{
				Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b,
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	st := f.Stats(context.Background())
	if st.Fleet == nil {
		t.Fatal("fleet stats missing Fleet block")
	}
	if st.Fleet.Requests != 6 {
		t.Fatalf("router requests = %d, want 6", st.Fleet.Requests)
	}
	if st.Fleet.CacheMisses != 3 || st.Fleet.CacheHits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3", st.Fleet.CacheHits, st.Fleet.CacheMisses)
	}
	if st.Fleet.CacheEntries != 3 {
		t.Fatalf("cache entries = %d, want 3", st.Fleet.CacheEntries)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("worker rows = %d, want 2", len(st.Workers))
	}
	var sum api.ServiceCounters
	for _, w := range st.Workers {
		sum.Add(w.Counters)
	}
	if sum != st.Totals {
		t.Fatalf("Totals %+v != summed workers %+v", st.Totals, sum)
	}
	if sum.Solves != 3 {
		t.Fatalf("worker solves = %d, want 3 (cache served the rest)", sum.Solves)
	}
	if len(st.Grids) != 1 || st.Grids[0] != grid.PresetTest {
		t.Fatalf("grids = %v", st.Grids)
	}
}

// hopRequest has no zero-valued field, so a key that drops one shows.
var hopRequest = serve.Request{Grid: "test", Method: core.MethodSStep, Precond: core.PrecondEVP,
	SStep: 8, B: []float64{1, 2}, X0: []float64{3, 4}}

// TestCacheKeyCoversEveryServeField: changing any one field of a request
// changes the result-cache key it is stored under — the hop where a field
// the key forgot would replay another solve's bits.
func TestCacheKeyCoversEveryServeField(t *testing.T) {
	f, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(context.Background())
	other := serve.Request{Grid: "1deg", Method: core.MethodPCG, Precond: core.PrecondDiagonal,
		SStep: 4, B: []float64{1, 3}, X0: []float64{3, 5}}
	_, base, err := f.cacheKey(hopRequest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reflect.TypeOf(hopRequest).NumField(); i++ {
		name := reflect.TypeOf(hopRequest).Field(i).Name
		req := hopRequest
		reflect.ValueOf(&req).Elem().Field(i).Set(reflect.ValueOf(other).Field(i))
		if reflect.DeepEqual(req, hopRequest) {
			t.Errorf("serve.Request.%s: the perturbed fixture does not differ", name)
		}
		if _, key, err := f.cacheKey(req); err != nil {
			t.Errorf("%s perturbed: %v", name, err)
		} else if key == base {
			t.Errorf("the cache key ignores serve.Request.%s", name)
		}
	}
}
