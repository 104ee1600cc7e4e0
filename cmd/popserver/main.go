// Command popserver exposes the concurrent solve service over HTTP — as a
// single service or as an in-process sharded fleet.
//
//	popserver -addr :8080 -sessions 2 -queue 64          # single service
//	popserver -addr :8080 -fleet 4                       # 4-shard fleet
//	popserver -probe http://localhost:8080 -frame        # one-shot client
//
// The HTTP surface is versioned under /v1:
//
//	POST /v1/solve     solve request — JSON (api.SolveRequest) or the
//	                   compact binary frame (Content-Type
//	                   application/x-pop-frame), answered in kind
//	GET  /v1/healthz   200 {"status":"ok"} while serving, 503 draining
//	GET  /v1/stats     fleet-wide counter aggregation (api.StatsResponse):
//	                   router counters, per-worker rows, summed totals
//	GET  /metrics      Prometheus text exposition (single: serve_* metrics;
//	                   fleet: the router's fleet_* metrics — worker
//	                   counters are aggregated under /v1/stats)
//	GET  /debug/trace  Perfetto trace export (a fleet merges every
//	                   worker's session tracks, re-homed per worker)
//	GET  /debug/flight flight-recorder ring: {"recent":[request records]}
//
// In a fleet, requests are consistent-hashed on their session-pool key
// so each shard keeps its own warm sessions, and completed solves replay
// bitwise from a content-addressed LRU cache ("cache":"hit" in the
// response). A shard whose queue is full answers 429, as a single service
// does; the router does not retry it elsewhere. Bad enum values return a
// 400 whose body lists the accepted spellings, and a body larger than the
// largest preset's frame (the 0.1° B and X0) a 413.
//
// Every request carries a trace ID (client-supplied via "trace_id" or
// assigned at admission) correlating its response with its rank-level spans
// in the trace export. SIGINT/SIGTERM triggers a graceful drain; a final
// Perfetto export is written to -traceout when set.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		cores     = flag.Int("cores", 0, "virtual ranks per session (0 = one block covering the whole grid, on one rank)")
		threads   = flag.Int("threads", 0, "worker shards per session: max ranks running concurrently (0 = GOMAXPROCS)")
		sessions  = flag.Int("sessions", 2, "max warmed sessions per (grid,method,precond) key")
		queue     = flag.Int("queue", 64, "per-key queue bound before shedding")
		batch     = flag.Int("batch", 8, "max requests coalesced per session checkout")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		tracecap  = flag.Int("tracecap", 4096, "per-rank trace ring capacity (0 = rank-level tracing off)")
		traceout  = flag.String("traceout", "", "write a Perfetto trace export here on shutdown")

		fleetN   = flag.Int("fleet", 0, "run an in-process fleet with this many worker shards (0 = single service)")
		cacheCap = flag.Int("cache", 0, "fleet result-cache capacity in entries (0 = default 4096, negative = off)")

		probe     = flag.String("probe", "", "client mode: send one solve to this base URL and exit (0 = converged)")
		frame     = flag.Bool("frame", false, "probe mode: speak the binary frame instead of JSON")
		probeGrid = flag.String("grid", "test", "probe mode: grid preset")
		probeMeth = flag.String("method", "chrongear", "probe mode: solver method")
		probePrec = flag.String("precond", "diagonal", "probe mode: preconditioner")
	)
	flag.Parse()

	if *probe != "" {
		os.Exit(runProbe(*probe, *frame, *probeGrid, *probeMeth, *probePrec))
	}

	obs.ServePprof(*pprofAddr)

	workerOpts := pop.ServiceOptions{
		Cores:             *cores,
		Threads:           *threads,
		MaxSessionsPerKey: *sessions,
		MaxQueue:          *queue,
		MaxBatch:          *batch,
		TraceCapacity:     *tracecap,
	}

	h := &handler{}
	switch {
	case *fleetN > 0:
		reg := obs.NewRegistry()
		flt, err := pop.NewFleet(pop.FleetOptions{
			Workers:       *fleetN,
			Worker:        workerOpts,
			CacheCapacity: *cacheCap,
			Registry:      reg,
		})
		if err != nil {
			log.Fatalf("popserver: %v", err)
		}
		h.flt, h.reg = flt, reg
		log.Printf("popserver: in-process fleet with %d worker shards", *fleetN)
	default:
		h.svc = pop.NewService(workerOpts)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.V1Solve, h.solve)
	mux.HandleFunc("GET "+api.V1Health, h.healthV1)
	mux.HandleFunc("GET "+api.V1Stats, h.stats)
	mux.HandleFunc("GET /metrics", h.metrics)
	mux.HandleFunc("GET /debug/trace", h.trace)
	mux.HandleFunc("GET /debug/flight", h.flight)
	srv := &http.Server{Addr: *addr, Handler: mux}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("popserver: %v, draining (budget %s)", s, *drainWait)
		h.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("popserver: http shutdown: %v", err)
		}
		if err := h.close(ctx); err != nil {
			log.Printf("popserver: drain incomplete: %v", err)
		}
		if *traceout != "" {
			if err := obs.WriteFile(*traceout, h.writePerfetto); err != nil {
				log.Printf("popserver: trace export: %v", err)
			} else {
				log.Printf("popserver: trace written to %s", *traceout)
			}
		}
		close(done)
	}()

	log.Printf("popserver: listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("popserver: %v", err)
	}
	<-done
}
