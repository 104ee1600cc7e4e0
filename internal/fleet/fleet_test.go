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
	op := stencil.Assemble(g, stencil.PhiFromTimeStep(1920))
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

// TestSingleflightCollapsesConcurrentIdentical drives the flight group
// directly with a leader that blocks until every follower has arrived —
// deterministic collapse, meaningful under -race.
func TestSingleflightCollapsesConcurrentIdentical(t *testing.T) {
	g := newFlightGroup()
	key := api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, []float64{1}, nil)

	const followers = 8
	leaderIn := make(chan struct{})  // closed when all followers are waiting
	var started, done sync.WaitGroup // started: followers launched
	calls := 0                       // leader executions (no atomics: proves the collapse)
	results := make([]dispatched, followers+1)
	errs := make([]error, followers+1)
	sharedFlags := make([]bool, followers+1)

	started.Add(1)
	done.Add(1)
	go func() {
		defer done.Done()
		results[0], errs[0], sharedFlags[0] = g.do(context.Background(), key, func() (dispatched, error) {
			started.Done() // leader is inside fn; followers may now pile on
			<-leaderIn
			calls++
			return dispatched{resp: serve.Response{X: []float64{42}}, shard: 3}, nil
		})
	}()
	started.Wait()

	var waiting sync.WaitGroup
	for i := 1; i <= followers; i++ {
		done.Add(1)
		waiting.Add(1)
		go func(i int) {
			defer done.Done()
			waiting.Done()
			results[i], errs[i], sharedFlags[i] = g.do(context.Background(), key, func() (dispatched, error) {
				t.Error("follower executed fn: singleflight failed to collapse")
				return dispatched{}, nil
			})
		}(i)
	}
	waiting.Wait()
	// Followers are registered or about to be; give their g.do entries a
	// moment, then release the leader. A follower that misses the in-flight
	// window would run fn and fail the test above.
	time.Sleep(10 * time.Millisecond)
	close(leaderIn)
	done.Wait()

	if calls != 1 {
		t.Fatalf("leader fn ran %d times, want 1", calls)
	}
	if sharedFlags[0] {
		t.Fatal("leader reported shared=true")
	}
	for i := 1; i <= followers; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if !sharedFlags[i] {
			t.Fatalf("follower %d not marked shared", i)
		}
		if results[i].shard != 3 || len(results[i].resp.X) != 1 || results[i].resp.X[0] != 42 {
			t.Fatalf("follower %d got %+v", i, results[i])
		}
	}

	// The completed call must be gone: a late caller becomes a fresh leader.
	_, _, shared := g.do(context.Background(), key, func() (dispatched, error) {
		return dispatched{}, nil
	})
	if shared {
		t.Fatal("completed call still registered as in-flight")
	}
}

// TestSingleflightFollowerContextAbandons checks a follower whose context
// ends leaves the wait without cancelling the leader.
func TestSingleflightFollowerContextAbandons(t *testing.T) {
	g := newFlightGroup()
	key := api.HashSolve("test", core.MethodPCG, core.PrecondDiagonal, core.Float64, 0, 1e-13, []float64{2}, nil)
	block := make(chan struct{})
	release := make(chan struct{})
	go func() {
		g.do(context.Background(), key, func() (dispatched, error) {
			close(block)
			<-release
			return dispatched{}, nil
		})
	}()
	<-block
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, shared := g.do(ctx, key, func() (dispatched, error) {
		t.Error("cancelled follower executed fn")
		return dispatched{}, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower: shared=%v err=%v", shared, err)
	}
	close(release)
}

// TestFleetConcurrentIdenticalRequests is the end-to-end -race exercise:
// many goroutines fire the same request; every response must be bitwise
// identical and the router books each request as exactly one of
// hit/miss/dedup.
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
		case "hit", "miss", "dedup":
		default:
			t.Fatalf("request %d Cache = %q", i, resps[i].Cache)
		}
	}
	st := f.Stats(context.Background())
	booked := st.Fleet.CacheHits + st.Fleet.CacheMisses + st.Fleet.Deduped
	if booked != n {
		t.Fatalf("hits+misses+deduped = %d, want %d", booked, n)
	}
	if st.Fleet.CacheMisses < 1 {
		t.Fatal("no cache miss booked — someone must have solved it")
	}
}

// TestCacheTTLDeterministic drives expiry with an injected clock.
func TestCacheTTLDeterministic(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := newResultCache(8, time.Minute, clock)
	key := api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, []float64{1}, nil)
	c.put(key, core.Result{Iterations: 7}, []float64{1, 2})

	if _, _, ok := c.get(key); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(time.Minute - time.Nanosecond)
	if _, _, ok := c.get(key); !ok {
		t.Fatal("entry expired before TTL")
	}
	now = now.Add(time.Nanosecond)
	if _, _, ok := c.get(key); ok {
		t.Fatal("entry survived past TTL")
	}
	st := c.stats()
	if st.expirations != 1 || st.entries != 0 {
		t.Fatalf("stats after expiry: %+v", st)
	}

	// Re-putting restarts the TTL clock.
	c.put(key, core.Result{Iterations: 7}, []float64{1, 2})
	now = now.Add(30 * time.Second)
	c.put(key, core.Result{Iterations: 7}, []float64{1, 2})
	now = now.Add(45 * time.Second) // 75s after first put, 45s after refresh
	if _, _, ok := c.get(key); !ok {
		t.Fatal("refreshed entry expired on the original clock")
	}
}

// TestCacheLRUDeterministic checks eviction order is exactly
// least-recently-used, with gets refreshing recency.
func TestCacheLRUDeterministic(t *testing.T) {
	c := newResultCache(3, 0, func() time.Time { return time.Unix(0, 0) })
	keys := make([]api.CacheKey, 4)
	for i := range keys {
		keys[i] = api.HashSolve("test", core.MethodPCSI, core.PrecondEVP, core.Float64, 0, 1e-13, []float64{float64(i)}, nil)
		if i < 3 {
			c.put(keys[i], core.Result{Iterations: i}, []float64{float64(i)})
		}
	}
	// Touch key0 so key1 is now the LRU tail.
	if _, _, ok := c.get(keys[0]); !ok {
		t.Fatal("key0 missed")
	}
	c.put(keys[3], core.Result{Iterations: 3}, []float64{3})
	if _, _, ok := c.get(keys[1]); ok {
		t.Fatal("LRU evicted the wrong entry: key1 should be gone")
	}
	for _, i := range []int{0, 2, 3} {
		if res, x, ok := c.get(keys[i]); !ok || res.Iterations != i || x[0] != float64(i) {
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
			if _, _, ok := c.get(k); ok && round > 0 {
				t.Fatalf("round %d: key%d hit while cycling 4 keys through 3 entries", round, i)
			}
			c.put(k, core.Result{Iterations: i}, []float64{float64(i)})
		}
	}
}

// TestRingProperties checks the consistent-hash ring's contract: total
// coverage, deterministic lookups, successor lists that are permutations
// starting at the home shard, and bounded remapping when the fleet grows.
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
		succ := r4.successors(k)
		if len(succ) != 4 || succ[0] != w {
			t.Fatalf("successors(%q) = %v, home %d", k, succ, w)
		}
		seen := make(map[int]bool)
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("successors(%q) = %v repeats a shard", k, succ)
			}
			seen[s] = true
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

// errWorker is a scripted Worker for failover tests.
type errWorker struct {
	err    error
	solves int
}

func (w *errWorker) Solve(ctx context.Context, req serve.Request) (serve.Response, error) {
	_ = ctx
	w.solves++
	if w.err != nil {
		return serve.Response{}, w.err
	}
	return serve.Response{Result: core.Result{Converged: true, Solver: "scripted"}, X: []float64{1}}, nil
}

func (w *errWorker) Counters(ctx context.Context) (api.ServiceCounters, []string, error) {
	_ = ctx
	return api.ServiceCounters{Solves: int64(w.solves)}, nil, nil
}

func (w *errWorker) Addr() string { return "scripted" }

func (w *errWorker) Close(ctx context.Context) error {
	_ = ctx
	return nil
}

// TestFleetFailoverOnShed checks a shed home shard (a full queue) fails
// over to the ring's next shard, while hard errors do not.
func TestFleetFailoverOnShed(t *testing.T) {
	req := Request{Request: serve.Request{Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: []float64{1}}}

	for _, shedErr := range []error{serve.ErrOverloaded} {
		f, err := New(Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		home, err := f.HomeShard(req.Request)
		if err != nil {
			t.Fatal(err)
		}
		workers := []*errWorker{{}, {}}
		workers[home].err = fmt.Errorf("scripted shed: %w", shedErr)
		f.workers = []Worker{workers[0], workers[1]}

		resp, err := f.Solve(context.Background(), req)
		if err != nil {
			t.Fatalf("%v: failover did not rescue: %v", shedErr, err)
		}
		if resp.Shard != 1-home {
			t.Fatalf("%v: answered by shard %d, want failover shard %d", shedErr, resp.Shard, 1-home)
		}
		if workers[home].solves != 1 || workers[1-home].solves != 1 {
			t.Fatalf("%v: solves = %d/%d, want home tried then failover", shedErr, workers[home].solves, workers[1-home].solves)
		}
		st := f.Stats(context.Background())
		if st.Fleet.Failovers != 1 {
			t.Fatalf("%v: failovers = %d, want 1", shedErr, st.Fleet.Failovers)
		}
	}

	// Hard errors (bad spec) propagate without failover.
	f, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	home, err := f.HomeShard(req.Request)
	if err != nil {
		t.Fatal(err)
	}
	workers := []*errWorker{{}, {}}
	workers[home].err = fmt.Errorf("scripted: %w", core.ErrBadSpec)
	f.workers = []Worker{workers[0], workers[1]}
	if _, err := f.Solve(context.Background(), req); !errors.Is(err, core.ErrBadSpec) {
		t.Fatalf("hard error: got %v, want ErrBadSpec", err)
	}
	if workers[1-home].solves != 0 {
		t.Fatal("hard error failed over; it must propagate")
	}

	// All shards shedding is a terminal overload.
	f2, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	shed := fmt.Errorf("scripted: %w", serve.ErrOverloaded)
	f2.workers = []Worker{&errWorker{err: shed}, &errWorker{err: shed}}
	if _, err := f2.Solve(context.Background(), req); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("all-shed: got %v, want ErrOverloaded", err)
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
		if !w.Healthy {
			t.Fatalf("worker %d unhealthy", w.Worker)
		}
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
