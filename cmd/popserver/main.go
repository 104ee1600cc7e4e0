// Command popserver exposes the concurrent solve service over HTTP — as a
// single-process server, an in-process sharded fleet, or a router over
// remote workers.
//
//	popserver -addr :8080 -sessions 2 -queue 64          # single service
//	popserver -addr :8080 -fleet 4                       # 4-shard local fleet
//	popserver -addr :8080 -routeto http://a:8081,http://b:8081
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
//	                   fleet modes: the router's fleet_* metrics — worker
//	                   counters are aggregated under /v1/stats)
//	GET  /debug/trace  Perfetto trace export (fleet modes merge every local
//	                   worker's session tracks, re-homed per worker)
//	GET  /debug/flight flight-recorder ring: {"recent":[request records]}
//
// In fleet modes, requests are consistent-hashed on their session-pool key
// so each shard keeps its own warm sessions, concurrent identical requests
// collapse onto one solve, and completed solves replay bitwise from a
// content-addressed cache ("cache":"hit" in the response). Bad enum values
// return a 400 whose body lists the accepted spellings.
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
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		cores     = flag.Int("cores", 0, "virtual ranks per session (0 = one per block)")
		threads   = flag.Int("threads", 0, "worker shards per session: max ranks running concurrently (0 = GOMAXPROCS)")
		tau       = flag.Float64("tau", 1920, "barotropic time step (s)")
		sessions  = flag.Int("sessions", 2, "max warmed sessions per (grid,method,precond) key")
		queue     = flag.Int("queue", 64, "per-key queue bound before shedding")
		batch     = flag.Int("batch", 8, "max requests coalesced per session checkout")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
		tracecap  = flag.Int("tracecap", 4096, "per-rank trace ring capacity (0 = rank-level tracing off)")
		traceout  = flag.String("traceout", "", "write a Perfetto trace export here on shutdown")
		flightdir = flag.String("flightdir", "", "directory for flight-recorder incident dumps (\"\" = in-memory only)")
		flightlen = flag.Int("flightring", 0, "flight-recorder ring capacity (0 = default)")
		slo       = flag.Duration("slo", 0, "per-request latency SLO; breaches dump the flight recorder (0 = off)")

		fleetN   = flag.Int("fleet", 0, "run an in-process fleet with this many worker shards (0 = single service)")
		routeTo  = flag.String("routeto", "", "comma-separated remote worker base URLs; run as a router over them")
		cacheCap = flag.Int("cache", 0, "fleet result-cache capacity in entries (0 = default 4096, negative = off)")
		cacheTTL = flag.Duration("cachettl", 0, "fleet result-cache entry TTL (0 = default 10m, negative = no expiry)")

		probe      = flag.String("probe", "", "client mode: send one solve to this base URL and exit (0 = converged)")
		frame      = flag.Bool("frame", false, "probe mode: speak the binary frame instead of JSON")
		probeGrid  = flag.String("grid", "test", "probe mode: grid preset")
		probeMeth  = flag.String("method", "chrongear", "probe mode: solver method")
		probePrec  = flag.String("precond", "diagonal", "probe mode: preconditioner")
		probeSStep = flag.Int("sstep", 0, "probe mode: s-step block size for -method sstep (0 = server default)")
	)
	flag.Parse()

	if *probe != "" {
		os.Exit(runProbe(*probe, *frame, *probeGrid, *probeMeth, *probePrec, *probeSStep))
	}

	obs.ServePprof(*pprofAddr)

	workerOpts := pop.ServiceOptions{
		Cores:             *cores,
		Threads:           *threads,
		Tau:               *tau,
		MaxSessionsPerKey: *sessions,
		MaxQueue:          *queue,
		MaxBatch:          *batch,
		TraceCapacity:     *tracecap,
		FlightRing:        *flightlen,
		FlightDir:         *flightdir,
		LatencySLO:        *slo,
	}

	h := &handler{}
	switch {
	case *routeTo != "":
		reg := obs.NewRegistry()
		flt, err := pop.NewFleet(pop.FleetOptions{
			Remotes:       splitURLs(*routeTo),
			CacheCapacity: *cacheCap,
			CacheTTL:      *cacheTTL,
			Registry:      reg,
			FlightRing:    *flightlen,
		})
		if err != nil {
			log.Fatalf("popserver: %v", err)
		}
		h.flt, h.reg = flt, reg
		log.Printf("popserver: routing to %d remote workers", len(splitURLs(*routeTo)))
	case *fleetN > 0:
		reg := obs.NewRegistry()
		flt, err := pop.NewFleet(pop.FleetOptions{
			Workers:       *fleetN,
			Worker:        workerOpts,
			CacheCapacity: *cacheCap,
			CacheTTL:      *cacheTTL,
			Registry:      reg,
			FlightRing:    *flightlen,
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

// splitURLs parses the -routeto list.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}
