package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	pop "repro"
	"repro/internal/api"
)

// probeAPI times the wire layer on one test-grid-sized request: the content
// hash every fleet request pays, and the frame and JSON codecs that only a
// remote worker would pay (recorded so that path has a baseline).
func (l *ledger) probeAPI() error {
	return l.span("api", func() error {
		g, err := pop.NewGrid(pop.GridTest)
		if err != nil {
			return err
		}
		b := manufactured(g, inputRNG(0, 7))
		k := fleetKeys[len(fleetKeys)-1]
		var sink api.CacheKey
		l.set("api.hash_us", perCall(func() {
			sink = api.HashSolve(pop.GridTest, k.method, k.precond, pop.Float64, 0, solveTol, b, nil)
		})/1e3, "us")
		_ = sink

		freq := api.FrameRequest{Grid: pop.GridTest, Method: k.method, Precond: k.precond, B: b, ReturnX: true}
		var buf []byte
		l.set("api.frame_req_encode_us", perCall(func() { buf = api.AppendFrameRequest(buf[:0], freq) })/1e3, "us")
		l.set("api.frame_req_bytes", float64(len(buf)), "B")
		l.set("api.frame_req_decode_us", perCall(func() { _, err = api.DecodeFrameRequest(buf) })/1e3, "us")
		if err != nil {
			return err
		}
		resp := api.SolveResponse{Converged: true, Iterations: 40, Solver: "pcsi", X: b}
		var rbuf []byte
		l.set("api.frame_resp_encode_us", perCall(func() { rbuf = api.AppendFrameResponse(rbuf[:0], resp) })/1e3, "us")
		l.set("api.frame_resp_decode_us", perCall(func() { _, err = api.DecodeFrameResponse(rbuf) })/1e3, "us")
		if err != nil {
			return err
		}

		jreq := api.SolveRequest{Grid: pop.GridTest, Method: "pcsi", Precond: "evp", B: b, ReturnX: true}
		l.set("api.parse_us", perCall(func() { _, err = jreq.Parse() })/1e3, "us")
		if err != nil {
			return err
		}
		l.set("api.json_req_roundtrip_us", perCall(func() {
			var raw []byte
			if raw, err = json.Marshal(jreq); err == nil {
				var back api.SolveRequest
				err = json.Unmarshal(raw, &back)
			}
		})/1e3, "us")
		return err
	})
}

// fleetSnapshot is the fleet's cumulative counters at one instant; the
// per-layer counts are differences between two of them, so set-up's
// requests stay out of the traced phase's numbers.
type fleetSnapshot struct {
	fleet   api.FleetCounters
	totals  api.ServiceCounters
	workers []int64 // solves per worker
}

func snapshotFleet(f *pop.Fleet) fleetSnapshot {
	st := f.Stats(context.Background())
	s := fleetSnapshot{fleet: *st.Fleet, totals: st.Totals}
	for _, w := range st.Workers {
		s.workers = append(s.workers, w.Counters.Solves)
	}
	return s
}

// ratio is a/b, 0 when b is 0: a layer that did no work has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleetLayers reads the serve and fleet layers' own account of the phase
// res measured on f since before: router counters, worker counters, and
// the per-request phase records each worker's flight recorder keeps.
func (l *ledger) fleetLayers(f *pop.Fleet, before fleetSnapshot, res loopResult) {
	now := snapshotFleet(f)
	fc, bc := now.fleet, before.fleet
	l.set("fleet.hit_ratio", ratio(float64(fc.CacheHits-bc.CacheHits), float64(fc.Requests-bc.Requests)), "ratio")
	l.set("fleet.deduped", float64(fc.Deduped-bc.Deduped), "count")
	l.set("fleet.failovers", float64(fc.Failovers-bc.Failovers), "count")
	l.set("fleet.errors", float64(fc.Errors-bc.Errors), "count")
	var most, all int64
	for i, n := range now.workers {
		most = max(most, n-before.workers[i])
		all += n - before.workers[i]
	}
	l.set("fleet.shard_share_max", ratio(float64(most), float64(all)), "ratio")

	t, b := now.totals, before.totals
	l.set("serve.batches", float64(t.Batches-b.Batches), "count")
	l.set("serve.mean_batch_size", ratio(float64(t.Solves-b.Solves), float64(t.Batches-b.Batches)), "count")
	l.set("serve.shed", float64(t.Shed-b.Shed), "count")
	l.set("serve.expired", float64(t.Expired-b.Expired), "count")
	l.set("serve.retried", float64(t.Retried-b.Retried), "count")
	l.set("serve.sessions", float64(t.Sessions), "count")

	// The workers' flight recorders hold their most recent requests, phase
	// by phase. The router files a record only for requests it answered
	// itself (hits), so for dispatched requests its share is what is left
	// of the client-observed latency after the worker's own total.
	var admit, queue, wait, solve, total, router []float64
	for _, r := range f.FlightRecords() {
		if r.Session < 0 {
			router = append(router, float64(r.RouterNS))
			continue
		}
		admit = append(admit, float64(r.AdmitNS))
		queue = append(queue, float64(r.QueueNS))
		wait = append(wait, float64(r.BatchWaitNS))
		solve = append(solve, float64(r.SolveNS))
		total = append(total, float64(r.TotalNS))
	}
	l.set("serve.admit_us_p50", median(admit)/1e3, "us")
	l.set("serve.queue_us_p50", median(queue)/1e3, "us")
	l.set("serve.batch_wait_us_p50", median(wait)/1e3, "us")
	l.set("serve.solve_us_p50", median(solve)/1e3, "us")
	routerUS := median(router) / 1e3
	if len(router) == 0 {
		routerUS = median(res.latMS)*1e3 - median(total)/1e3
	}
	l.set("fleet.router_us_p50", routerUS, "us")
}

// probeStream is how long each serving probe phase runs: a few hundred
// test-grid solves, enough for a median.
const probeStream = 750 * time.Millisecond

// probeServing sends the fleet_miss request stream — test grid, four keys,
// every right-hand side unique, two clients — through three stacks in turn:
// bare solvers, one bare service, and a two-worker fleet. The differences
// are what the serve layer and the router each add to a solve, and
// fleet.tax_ratio is the fleet's throughput over the bare service's. When
// the workload has no fleet of its own (haveFleet false), the probe fleet
// also supplies the serve and fleet layer counters.
func (l *ledger) probeServing(seed int64, haveFleet bool) error {
	return l.span("serving", func() error {
		w, _ := workloadByName("fleet_miss_test64")
		in, err := newInputs(w, seed)
		if err != nil {
			return err
		}
		// drive warms t with the set-up requests, calls warmed, and measures
		// the stream for probeStream.
		drive := func(t *streamTarget, warmed func()) (loopResult, error) {
			if err := t.prefill(w.clients); err != nil {
				return loopResult{}, err
			}
			warmed()
			res := closedLoop(t, w.clients, probeStream, nil, 0)
			if res.failed > 0 {
				return res, fmt.Errorf("%d of %d probe requests failed: %w", res.failed, res.attempted, res.firstErr)
			}
			return res, nil
		}
		nothing := func() {}

		// Bare solvers: each client owns one solver per key.
		bare := newStream(w, in, seed, w.clients)
		solvers := make([][]*pop.Solver, w.clients+1)
		for c := range solvers {
			for _, k := range fleetKeys {
				spec := solverSpec(w)
				spec.Method, spec.Precond = k.method, k.precond
				s, err := pop.NewSolver(in.g, spec)
				if err != nil {
					return err
				}
				solvers[c] = append(solvers[c], s)
			}
		}
		bare.span = "core.solve"
		bare.send = func(client, key int, b []float64) (answer, error) {
			res, x, err := solvers[client][key].Solve(b, nil)
			// The solver's answer lives in its session arena; hand out a
			// copy, as a service does.
			return answer{x: append([]float64(nil), x...), conv: res.Converged}, err
		}
		coreRes, err := drive(bare, nothing)
		if err != nil {
			return err
		}

		// One bare service.
		direct := newStream(w, in, seed, w.clients)
		svc := pop.NewService(serviceOptions())
		direct.span = "serve.solve"
		direct.send = func(_, key int, b []float64) (answer, error) {
			resp, err := svc.Solve(context.Background(), serveRequest(w.grid, key, b))
			return answer{x: resp.X, conv: resp.Result.Converged}, err
		}
		directRes, err := drive(direct, nothing)
		if cerr := svc.Close(context.Background()); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}

		// The two-worker fleet.
		routed := newStream(w, in, seed, w.clients)
		if err := routed.overFleet(); err != nil {
			return err
		}
		defer routed.shut()
		var before fleetSnapshot
		fleetRes, err := drive(routed, func() { before = snapshotFleet(routed.fleet) })
		if err != nil {
			return err
		}
		if !haveFleet {
			l.fleetLayers(routed.fleet, before, fleetRes)
		}

		perS := func(r loopResult) float64 { return float64(r.attempted-r.failed) / r.wall.Seconds() }
		l.set("serve.direct_req_ms_p50", median(directRes.latMS), "ms")
		l.set("serve.direct_solves_per_s", perS(directRes), "1/s")
		l.set("serve.over_core_us", (median(directRes.latMS)-median(coreRes.latMS))*1e3, "us")
		l.set("fleet.tax_ratio", perS(fleetRes)/perS(directRes), "ratio")
		return nil
	})
}
