package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// op is one operation as a client sees it: the request it prepared, the
// answer it received, and what the answer is checked against. A client
// reuses one op, so its buffers are allocated once.
type op struct {
	client int       // which client (and so which input stream and scratch) owns it
	key    int       // index into the target's session keys
	pick   int       // which stored problem the request was drawn from
	t      float64   // blend weight of a unique request
	b      []float64 // right-hand side sent
	x      []float64 // answer received
	cache  string    // fleet cache disposition ("" for a bare solver)
	conv   bool
	// trueRes is the relative true residual check measured (0 when the
	// check compared bits instead).
	trueRes float64
}

// target is a system under load. prepare and check run outside the timed
// interval; solve is the timed call and nothing else.
type target interface {
	prepare(i int, o *op)
	solve(o *op) error
	check(o *op) error
	// solveSpan names the span recorded around solve.
	solveSpan() string
	close() error
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	latMS     []float64 // latency of every attempted operation, ms
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	// maxTrueRes is the largest true residual any check measured.
	maxTrueRes float64
	// before and after are the runtime's memory statistics on either side
	// of the loop, taken once the loop's own buffers exist.
	before, after runtime.MemStats
}

// closedLoop drives clients goroutines against t for d: each client sends
// its next operation only after checking the previous answer, so a slow
// system receives less load. Operations under way at the deadline finish.
func closedLoop(t target, clients int, d time.Duration, rec *recorder, parent int) loopResult {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		res    loopResult
		nextOp atomic.Int64
	)
	// Room for a million latencies per client up front: growing by doubling
	// would leave copies behind whose size depends on where the count
	// happens to land, and the loop's own buffers must not read as the
	// system's allocations.
	bufs := make([][]float64, clients)
	for c := range bufs {
		bufs[c] = make([]float64, 0, 1<<20)
	}
	runtime.ReadMemStats(&res.before)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var (
				o      = op{client: c}
				maxRes float64
				lats   = bufs[c]
				failed int
				first  error
			)
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				id := int(nextOp.Add(1))
				opRec := rec.forOp(4)
				opSpan := opRec.begin("op", parent, id)
				opRec.timed("client.prep", opSpan, id, func() { t.prepare(i, &o) })

				solveSpan := opRec.begin(t.solveSpan(), opSpan, id)
				t0 := time.Now()
				err := t.solve(&o)
				lat := time.Since(t0)
				opRec.end(solveSpan)

				if err == nil {
					opRec.timed("bench.check", opSpan, id, func() { err = t.check(&o) })
				}
				opRec.end(opSpan)
				maxRes = max(maxRes, o.trueRes)
				lats = append(lats, float64(lat.Nanoseconds())/1e6)
				if err != nil {
					failed++
					if first == nil {
						first = fmt.Errorf("client %d op %d: %w", c, i, err)
					}
				}
			}
			mu.Lock()
			res.latMS = append(res.latMS, lats...)
			res.attempted += len(lats)
			res.failed += failed
			res.maxTrueRes = max(res.maxTrueRes, maxRes)
			if res.firstErr == nil {
				res.firstErr = first
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	runtime.ReadMemStats(&res.after)
	return res
}
