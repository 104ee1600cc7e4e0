// Command poptrace analyzes Perfetto trace exports produced by this repo
// (popserver /debug/trace, popserver -traceout, or
// serve.Service.WritePerfetto) and prints the paper-style critical-path
// attribution the SC15 analysis rests on: where each request's wall time
// went — queue, batch wait, compute, halo exchange, global reduction, and
// straggler slack — plus a per-rank straggler league table identifying
// which ranks set the reductions' critical paths, annotated with the worker
// shard each rank executed on and rolled up per shard (the hardware-
// parallelism view: how virtual ranks were packed onto worker shards).
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

	fmt.Printf("trace: %s\n", path)
	fmt.Printf("  events %d, processes %d, requests %d\n",
		len(pt.Events), len(pt.ProcessNames), len(pt.Requests))
	if pt.Dropped > 0 {
		fmt.Printf("  WARNING: trace truncated — %d events lost to ring-buffer wraparound;\n"+
			"  oldest spans are missing and per-rank totals undercount\n", pt.Dropped)
	}
	if len(pt.Requests) == 0 {
		fmt.Println("  no request records in trace (serve layer not traced)")
		return reportLeague(pt, league)
	}

	atts := make([]obs.Attribution, 0, len(pt.Requests))
	for _, rec := range pt.Requests {
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

	return reportLeague(pt, league)
}

// reportLeague prints the per-rank straggler league from the trace's reduce
// spans (silent when the trace has none — e.g. rank tracing was disabled).
func reportLeague(pt *obs.PerfettoTrace, limit int) error {
	rows := obs.StragglerLeague(pt.Events)
	if len(rows) == 0 {
		return nil
	}
	n := len(rows)
	if limit > 0 && limit < n {
		n = limit
	}
	fmt.Printf("\nstraggler league (top %d of %d ranks by reductions straggled):\n", n, len(rows))
	fmt.Printf("  %-6s %-6s %9s %10s %7s %12s %12s\n",
		"rank", "shard", "reduces", "straggled", "share", "wait-mean", "wait-total")
	for _, r := range rows[:n] {
		share := 0.0
		if r.Reduces > 0 {
			share = float64(r.Straggled) / float64(r.Reduces) * 100
		}
		shard := "-"
		if r.Shard >= 0 {
			shard = fmt.Sprintf("%d", r.Shard)
		}
		fmt.Printf("  %-6d %-6s %9d %10d %6.1f%% %10.3fµs %10.3fms\n",
			r.Rank, shard, r.Reduces, r.Straggled, share, r.WaitMean*1e6, r.WaitTotal*1e3)
	}
	reportShards(rows)
	return nil
}

// reportShards rolls the league up by worker shard: how the virtual ranks
// were packed onto hardware shards and where the reduction wait concentrated.
// Silent when the trace carries no shard attribution (run_begin markers
// absent or unstamped).
func reportShards(rows []obs.LeagueRow) {
	type agg struct {
		ranks, reduces, straggled int
		wait                      float64
	}
	byShard := make(map[int]*agg)
	for _, r := range rows {
		if r.Shard < 0 {
			return
		}
		a := byShard[r.Shard]
		if a == nil {
			a = &agg{}
			byShard[r.Shard] = a
		}
		a.ranks++
		a.reduces += r.Reduces
		a.straggled += r.Straggled
		a.wait += r.WaitTotal
	}
	if len(byShard) == 0 {
		return
	}
	ids := make([]int, 0, len(byShard))
	for id := range byShard {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Printf("\nworker-shard rollup (%d shards):\n", len(ids))
	fmt.Printf("  %-6s %6s %9s %10s %12s\n",
		"shard", "ranks", "reduces", "straggled", "wait-total")
	for _, id := range ids {
		a := byShard[id]
		fmt.Printf("  %-6d %6d %9d %10d %10.3fms\n",
			id, a.ranks, a.reduces, a.straggled, a.wait*1e3)
	}
}
