// Command poptrace analyzes the Perfetto trace files this repo writes — the
// one format every solve's events leave a process in (popsolve -trace,
// popmodel -trace, popserver /debug/trace and -traceout, Fleet.WritePerfetto)
// — and prints the paper-style critical-path attribution the SC15 analysis
// rests on: where each request's wall time went — queue, batch wait,
// compute, halo exchange, global reduction, and straggler slack — plus a
// per-rank straggler league table identifying which ranks set the
// reductions' critical paths, annotated with the worker shard each rank
// executed on and rolled up per shard (the hardware-parallelism view: how
// virtual ranks were packed onto worker shards). A trace from a one-shot
// command has no request records; it gets the event counts and the league.
//
//	poptrace trace.json
//	poptrace -top 5 -league 8 trace.json
//
// The per-request table decomposes measured request latency; the aggregate
// section sums the attribution over all requests (the serving-layer
// equivalent of the paper's Fig. 5 phase breakdown); the league table ranks
// ranks by how often their late reduction entry made everyone else wait.
// A truncated trace (ring-buffer drops) is flagged with a warning since
// span-derived numbers then undercount the oldest activity.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

func main() {
	var (
		top    = flag.Int("top", 10, "requests to list in the per-request table (0 = all)")
		league = flag.Int("league", 10, "ranks to list in the straggler league (0 = all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: poptrace [flags] <trace.json>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *top, *league); err != nil {
		fmt.Fprintf(os.Stderr, "poptrace: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, top, league int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pt, err := obs.ReadPerfetto(f)
	if err != nil {
		return err
	}

	kinds, sessions := make(map[string]int), make(map[int]bool)
	for _, tr := range pt.Tracks {
		sessions[tr.PID] = true
		for _, e := range tr.Events {
			kinds[e.Name]++
		}
	}
	fmt.Printf("trace: %s\n", path)
	fmt.Printf("  %d rank tracks in %d sessions, %d requests\n",
		len(pt.Tracks), len(sessions), len(pt.Requests))
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-16s %d events\n", name, kinds[name])
	}
	if pt.Dropped > 0 {
		fmt.Printf("  WARNING: trace truncated — %d events lost to ring-buffer wraparound;\n"+
			"  oldest spans are missing and per-rank totals undercount\n", pt.Dropped)
	}
	if len(pt.Requests) == 0 {
		fmt.Println("  no request records in trace (serve layer not traced)")
	} else {
		reportRequests(pt.Requests, top)
	}
	obs.FprintLeague(os.Stdout, obs.StragglerLeague(pt.Tracks), league)
	return nil
}

// reportRequests prints the per-request critical-path table (top rows by
// latency, 0 = all) and its sum over every request.
func reportRequests(reqs []obs.RequestRecord, top int) {
	atts := make([]obs.Attribution, 0, len(reqs))
	for _, rec := range reqs {
		atts = append(atts, obs.AttributeRecord(rec))
	}
	sort.Slice(atts, func(i, j int) bool { return atts[i].Total > atts[j].Total })

	n := len(atts)
	if top > 0 && top < n {
		n = top
	}
	fmt.Printf("\nper-request critical path (top %d of %d by latency, ms):\n", n, len(atts))
	fmt.Printf("  %-8s %-22s %9s %8s %8s %8s %8s %8s %8s %8s %8s %6s\n",
		"trace", "key", "total", "router", "admit", "queue", "batch", "compute", "halo", "reduce", "slack", "cover")
	for _, a := range atts[:n] {
		fmt.Printf("  %-8d %-22s %9.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %5.1f%%\n",
			a.TraceID, a.Key, a.Total*1e3, a.Router*1e3, a.Admit*1e3, a.Queue*1e3, a.BatchWait*1e3,
			a.Compute*1e3, a.Halo*1e3, a.Reduce*1e3, a.Slack*1e3, a.Coverage()*100)
	}

	// Aggregate: the serving-layer phase breakdown summed over requests.
	var agg obs.Attribution
	for _, a := range atts {
		agg.Router += a.Router
		agg.Admit += a.Admit
		agg.Queue += a.Queue
		agg.BatchWait += a.BatchWait
		agg.Compute += a.Compute
		agg.Halo += a.Halo
		agg.Reduce += a.Reduce
		agg.Slack += a.Slack
		agg.Total += a.Total
	}
	fmt.Printf("\naggregate critical path (%d requests, %.3f s attributed of %.3f s measured):\n",
		len(atts), agg.Sum(), agg.Total)
	phases := []struct {
		name string
		v    float64
	}{
		{"router", agg.Router},
		{"admit", agg.Admit}, {"queue", agg.Queue}, {"batch-wait", agg.BatchWait},
		{"compute", agg.Compute}, {"halo", agg.Halo}, {"reduce", agg.Reduce},
		{"straggler-slack", agg.Slack},
	}
	for _, ph := range phases {
		pct := 0.0
		if agg.Total > 0 {
			pct = ph.v / agg.Total * 100
		}
		fmt.Printf("  %-16s %10.3f ms  %5.1f%%\n", ph.name, ph.v*1e3, pct)
	}
}
