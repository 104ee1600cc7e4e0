package serve_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/serve"
)

// testRHS builds deterministic, distinct right-hand sides on the test grid.
func testRHS(t *testing.T, n int) [][]float64 {
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

func closeQuietly(t *testing.T, s *serve.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestPooledSolvesBitwiseIdenticalToSerial is the determinism gate: N
// goroutines hammering a two-session pool must produce, for every rhs, a
// solution and residual history bitwise-identical to a one-session service
// solving the same requests serially. Pooling may reorder work but must
// never change a single bit of it.
func TestPooledSolvesBitwiseIdenticalToSerial(t *testing.T) {
	rhs := testRHS(t, 8)
	req := func(i int) serve.Request {
		return serve.Request{
			Grid:    grid.PresetTest,
			Method:  core.MethodPCSI,
			Precond: core.PrecondEVP,
			B:       rhs[i],
		}
	}

	serial := serve.New(serve.Options{Cores: 4, MaxSessionsPerKey: 1})
	want := make([]serve.Response, len(rhs))
	for i := range rhs {
		resp, err := serial.Solve(context.Background(), req(i))
		if err != nil {
			t.Fatalf("serial solve %d: %v", i, err)
		}
		want[i] = resp
	}
	closeQuietly(t, serial)

	pooled := serve.New(serve.Options{Cores: 4, MaxSessionsPerKey: 2})
	defer closeQuietly(t, pooled)
	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, len(rhs)*rounds)
	got := make([]serve.Response, len(rhs)*rounds)
	for r := 0; r < rounds; r++ {
		for i := range rhs {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				got[slot], errs[slot] = pooled.Solve(context.Background(), req(i))
			}(r*len(rhs)+i, i)
		}
	}
	wg.Wait()

	for slot, err := range errs {
		if err != nil {
			t.Fatalf("pooled solve %d: %v", slot, err)
		}
		i := slot % len(rhs)
		w := want[i]
		g := got[slot]
		if g.Result.Iterations != w.Result.Iterations || g.Result.RelResidual != w.Result.RelResidual {
			t.Errorf("rhs %d: pooled result (%d its, %g) != serial (%d its, %g)",
				i, g.Result.Iterations, g.Result.RelResidual, w.Result.Iterations, w.Result.RelResidual)
		}
		gr, wr := g.Result.Trace.Residuals, w.Result.Trace.Residuals
		if len(gr) != len(wr) {
			t.Fatalf("rhs %d: residual history length %d != %d", i, len(gr), len(wr))
		}
		for c := range gr {
			if gr[c] != wr[c] {
				t.Errorf("rhs %d check %d: pooled %+v != serial %+v", i, c, gr[c], wr[c])
			}
		}
		for k := range g.X {
			if g.X[k] != w.X[k] {
				t.Fatalf("rhs %d: solution differs at %d: %g != %g", i, k, g.X[k], w.X[k])
			}
		}
	}
	if n := pooled.Snapshot().Sessions; n != 2 {
		t.Errorf("pooled service built %d sessions, want 2", n)
	}
}

// TestOverloadShedsNeverBlocks fills a tiny queue from many goroutines:
// some requests must shed with ErrOverloaded, every request must get an
// answer, and the test completing at all is the no-deadlock assertion.
func TestOverloadShedsNeverBlocks(t *testing.T) {
	rhs := testRHS(t, 1)
	// Unpreconditioned solves of an ill-conditioned operator (huge Tau)
	// take tens of milliseconds each — the worker cannot outrun the burst.
	slow := serve.Request{
		Grid: grid.PresetTest, Method: core.MethodChronGear,
		Precond: core.PrecondIdentity, B: rhs[0]}
	s := serve.New(serve.Options{
		MaxSessionsPerKey: 1,
		MaxQueue:          2,
		MaxBatch:          1, // one solve per checkout: at most 3 requests in flight
		Tau:               200000,
		// One worker, so the solve occupies a single scheduler thread. The
		// burst needs no CPU mid-solve: all 30 callers are runnable before
		// the worker is next scheduled, so they are admitted or shed against
		// the 2-deep queue first — which also holds on GOMAXPROCS=1, where a
		// running worker yields to other goroutines only through the
		// runtime's asynchronous preemption (verify.sh runs this test there).
		Threads: 1,
		Solver:  core.Options{Tol: 1e-12, MaxIters: 200000},
	})
	defer closeQuietly(t, s)

	// Warm the pool so the burst is not staggered by the session build.
	if _, err := s.Solve(context.Background(), slow); err != nil {
		t.Fatal(err)
	}

	const callers = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, shed int
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start // burst together: a 2-deep queue cannot hold 30 arrivals
			_, err := s.Solve(context.Background(), slow)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil || errors.Is(err, core.ErrNotConverged):
				ok++
			case errors.Is(err, serve.ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if ok+shed != callers {
		t.Errorf("accounted %d responses, want %d", ok+shed, callers)
	}
	if shed == 0 {
		t.Error("no request was shed through a 2-deep queue with 30 callers")
	}
	if ok == 0 {
		t.Error("every request was shed")
	}
	st := s.Snapshot()
	if st.Shed != int64(shed) {
		t.Errorf("snapshot.Shed = %d, callers saw %d", st.Shed, shed)
	}
}

// TestBatchingCoalesces checks the greedy drain: requests that queue up
// behind a busy session must leave in fewer checkouts than solves. Nothing
// holds a batch open, so the backlog is built on purpose — a slow head solve
// occupies the only session while the followers arrive.
func TestBatchingCoalesces(t *testing.T) {
	rhs := testRHS(t, 4)
	s := serve.New(serve.Options{
		MaxSessionsPerKey: 1,
		MaxBatch:          8,
		Tau:               60000, // ill-conditioned and unpreconditioned: tens of ms a solve
		Solver:            core.Options{Tol: 1e-12, MaxIters: 200000},
	})
	defer closeQuietly(t, s)
	solve := func(i int) {
		_, err := s.Solve(context.Background(), serve.Request{Grid: grid.PresetTest,
			Method: core.MethodChronGear, Precond: core.PrecondIdentity, B: rhs[i]})
		if err != nil && !errors.Is(err, core.ErrNotConverged) {
			t.Errorf("solve %d: %v", i, err)
		}
	}
	solve(0) // warm the pool: checkout 1
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); solve(0) }()
	for s.Snapshot().Batches < 2 { // the head is checked out and solving
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i < len(rhs); i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); solve(i) }(i)
	}
	wg.Wait()
	st := s.Snapshot()
	if want := int64(len(rhs) + 1); st.Solves != want {
		t.Fatalf("solves = %d, want %d", st.Solves, want)
	}
	if st.Batches >= st.Solves-1 {
		t.Errorf("batches = %d, solves = %d: the backlog was not coalesced", st.Batches, st.Solves)
	}
}

// TestDeadlineExpiryMidSolve gives a slow solve a deadline far shorter than
// its runtime; the deadline must surface as context.DeadlineExceeded, cut
// at a convergence-check boundary by the in-solver cancellation protocol.
func TestDeadlineExpiryMidSolve(t *testing.T) {
	rhs := testRHS(t, 1)
	s := serve.New(serve.Options{
		MaxSessionsPerKey: 1,
		// Unpreconditioned at a tight tolerance: thousands of iterations,
		// far beyond the deadline below.
		Solver: core.Options{Tol: 1e-14, MaxIters: 100000},
	})
	defer closeQuietly(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
	defer cancel()
	_, err := s.Solve(ctx, serve.Request{
		Grid: grid.PresetTest, Method: core.MethodChronGear, Precond: core.PrecondIdentity, B: rhs[0]})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExpiredInQueueSkipped submits with an already-cancelled context: the
// worker must skip the solve and account the request as expired.
func TestExpiredInQueueSkipped(t *testing.T) {
	rhs := testRHS(t, 1)
	s := serve.New(serve.Options{MaxSessionsPerKey: 1})

	// Warm the pool so the cancelled request goes through the queue.
	if _, err := s.Solve(context.Background(), serve.Request{Grid: grid.PresetTest, B: rhs[0]}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Solve(ctx, serve.Request{Grid: grid.PresetTest, B: rhs[0]})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	closeQuietly(t, s) // drain so the worker has accounted the skip
	st := s.Snapshot()
	if st.Expired == 0 {
		t.Error("expired request was not accounted")
	}
	if st.Solves != 1 {
		t.Errorf("solves = %d, want 1 (the cancelled request must not be solved)", st.Solves)
	}
}

// TestGracefulDrain closes the service under load: every admitted request
// still gets its solve, and new requests are rejected with ErrClosed.
func TestGracefulDrain(t *testing.T) {
	rhs := testRHS(t, 6)
	s := serve.New(serve.Options{MaxSessionsPerKey: 1, Solver: core.Options{Tol: 1e-13}})

	// Warm the pool first so the burst below queues instead of racing the
	// initial session build against Close.
	if _, err := s.Solve(context.Background(), serve.Request{Grid: grid.PresetTest, B: rhs[0]}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, rejected int
	for i := range rhs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Solve(context.Background(), serve.Request{Grid: grid.PresetTest, B: rhs[i]})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, serve.ErrClosed):
				rejected++
			default:
				t.Errorf("solve %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the burst enqueue
	closeQuietly(t, s)
	wg.Wait()

	if ok+rejected != len(rhs) {
		t.Errorf("accounted %d, want %d", ok+rejected, len(rhs))
	}
	if ok == 0 {
		t.Error("drain completed no queued work")
	}
	if _, err := s.Solve(context.Background(), serve.Request{Grid: grid.PresetTest, B: rhs[0]}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("post-close solve: err = %v, want ErrClosed", err)
	}
}

// TestBadRequests checks admission-time validation surfaces ErrBadSpec and
// that a failed session build sticks instead of rebuilding per request.
func TestBadRequests(t *testing.T) {
	rhs := testRHS(t, 1)
	s := serve.New(serve.Options{})
	defer closeQuietly(t, s)

	cases := map[string]serve.Request{
		"unknown method":  {Grid: grid.PresetTest, Method: core.Method(42), B: rhs[0]},
		"unknown precond": {Grid: grid.PresetTest, Precond: core.PrecondType(42), B: rhs[0]},
		"unknown grid":    {Grid: "atlantis", B: rhs[0]},
		"short rhs":       {Grid: grid.PresetTest, B: rhs[0][:5]},
	}
	for name, req := range cases {
		if _, err := s.Solve(context.Background(), req); !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", name, err)
		}
	}
	// Sticky build failure: the second unknown-grid request fails fast too.
	if _, err := s.Solve(context.Background(), serve.Request{Grid: "atlantis", B: rhs[0]}); !errors.Is(err, core.ErrBadSpec) {
		t.Errorf("sticky build failure: err = %v, want ErrBadSpec", err)
	}
}

// TestCSIAliasSharesPool checks the csi alias lands in the pcsi/none pool
// rather than warming a duplicate session set.
func TestCSIAliasSharesPool(t *testing.T) {
	rhs := testRHS(t, 1)
	s := serve.New(serve.Options{MaxSessionsPerKey: 1, Solver: core.Options{Tol: 1e-6}})
	defer closeQuietly(t, s)

	for _, req := range []serve.Request{
		{Grid: grid.PresetTest, Method: core.MethodCSI, B: rhs[0]},
		{Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondIdentity, B: rhs[0]},
	} {
		if _, err := s.Solve(context.Background(), req); err != nil {
			t.Fatalf("%v: %v", req.Method, err)
		}
	}
	if n := s.Snapshot().Sessions; n != 1 {
		t.Errorf("csi + pcsi/none built %d sessions, want 1 shared", n)
	}
}

// TestKeyLabels pins the metric-label spelling of normalized pool keys:
// three segments and the csi alias folded.
func TestKeyLabels(t *testing.T) {
	for _, c := range []struct {
		req  serve.Request
		want string
	}{
		{serve.Request{Method: core.MethodPCSI, Precond: core.PrecondEVP}, "test/pcsi/evp"},
		{serve.Request{Method: core.MethodCSI}, "test/pcsi/none"},
		{serve.Request{Method: core.MethodSStep}, "test/sstep/diagonal"},
	} {
		k, err := serve.NormalizeRequest(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != c.want {
			t.Errorf("key label = %q, want %q", k.String(), c.want)
		}
	}
}

// TestKeyCoversRequestScalars: changing any scalar field of a request changes
// the pool key it is served under (and the fleet shards and hashes on), so a
// field normalize forgot cannot silently share another configuration's
// sessions. The two vectors are what a pool's sessions are reused across.
func TestKeyCoversRequestScalars(t *testing.T) {
	base := serve.Request{Grid: "test", Method: core.MethodSStep, Precond: core.PrecondEVP,
		B: []float64{1}, X0: []float64{2}}
	other := serve.Request{Grid: "1deg", Method: core.MethodPCG, Precond: core.PrecondDiagonal,
		B: []float64{3}, X0: []float64{4}}
	vectors := map[string]bool{"B": true, "X0": true}
	want, err := serve.NormalizeRequest(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		name := reflect.TypeOf(base).Field(i).Name
		req := base
		reflect.ValueOf(&req).Elem().Field(i).Set(reflect.ValueOf(other).Field(i))
		if reflect.DeepEqual(req, base) {
			t.Errorf("serve.Request.%s: the perturbed fixture does not differ", name)
		}
		got, err := serve.NormalizeRequest(req)
		if err != nil {
			t.Errorf("%s perturbed: %v", name, err)
		} else if (got != want) == vectors[name] {
			t.Errorf("serve.Request.%s: pool key changed = %v, want %v", name, got != want, !vectors[name])
		}
	}
}

// TestServeSStepReachesSession: a served s-step request runs the block
// recurrence. Its reduction count — from the communicator's own counters —
// honours the ceil(iters/s)+1 bound at s = core.SStepBlock, which a request
// that ran a per-iteration method (one reduction per iteration) would not.
func TestServeSStepReachesSession(t *testing.T) {
	rhs := testRHS(t, 1)
	s := serve.New(serve.Options{MaxSessionsPerKey: 1, Solver: core.Options{Tol: 1e-10}})
	defer closeQuietly(t, s)

	resp, err := s.Solve(context.Background(), serve.Request{Grid: grid.PresetTest,
		Method: core.MethodSStep, Precond: core.PrecondEVP, B: rhs[0]})
	if err != nil || !resp.Result.Converged {
		t.Fatalf("err %v, converged %v", err, resp.Result.Converged)
	}
	const sv = core.SStepBlock
	n, iters := resp.Result.Stats.PerRank[0].Reductions, resp.Result.Iterations
	if bound := int64((iters+sv-1)/sv) + 1; n > bound {
		t.Errorf("%d reductions for %d iterations, bound ceil(%d/%d)+1 = %d — the session did not run s-step",
			n, iters, iters, sv, bound)
	}
}
