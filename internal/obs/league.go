package obs

import (
	"fmt"
	"io"
	"sort"
)

// LeagueRow is one rank's standing in the straggler league: how often its
// late arrival set a reduction's critical path, and how long it spent
// waiting for others (a rank that straggles often and waits little is the
// load-imbalance hot spot the paper's §5.2 analysis hunts).
type LeagueRow struct {
	// Rank is the virtual rank (the track TID).
	Rank int
	// Shard is the worker shard the rank last executed on, taken from the
	// track's run_begin markers; −1 when the track carries none (the ring
	// wrapped past them).
	Shard int
	// Reduces is how many reduce spans the rank's track retained.
	Reduces int
	// Straggled is how many of those reductions this rank arrived last at.
	Straggled int
	// WaitTotal is the rank's summed reduction wait in seconds; WaitMean
	// the per-reduction mean.
	WaitTotal, WaitMean float64
}

// StragglerLeague aggregates the tracks' reduce spans into per-rank
// standings, sorted by straggle count descending (ties by rank) — the one
// straggler aggregation, fed Tracer.Tracks in process (popsolve) and
// ReadPerfetto's tracks from a file (poptrace). Ranks are identified by
// track TID, so multi-session exports aggregate same-numbered ranks across
// sessions; a track with no reduce span has no row.
func StragglerLeague(tracks []Track) []LeagueRow {
	byRank := make(map[int]*LeagueRow)
	for _, tr := range tracks {
		row := byRank[tr.TID]
		if row == nil {
			row = &LeagueRow{Rank: tr.TID, Shard: -1}
			byRank[tr.TID] = row
		}
		for i := range tr.Events {
			e := &tr.Events[i]
			switch {
			case e.Name == EvRunBegin:
				row.Shard = int(e.Aux)
			case e.Name == EvReduce && !e.Point:
				row.Reduces++
				row.WaitTotal += e.Wait
				if e.Straggler == tr.TID {
					row.Straggled++
				}
			}
		}
	}
	rows := make([]LeagueRow, 0, len(byRank))
	for _, row := range byRank {
		if row.Reduces == 0 {
			continue
		}
		row.WaitMean = row.WaitTotal / float64(row.Reduces)
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Straggled != rows[j].Straggled {
			return rows[i].Straggled > rows[j].Straggled
		}
		return rows[i].Rank < rows[j].Rank
	})
	return rows
}

// FprintLeague prints the top limit rows (0 = all) of a straggler league and
// its roll-up by worker shard — how the virtual ranks were packed onto
// hardware shards and where the reduction wait concentrated. It prints
// nothing for an empty league (rank tracing was off), and no roll-up when a
// row carries no shard.
func FprintLeague(w io.Writer, rows []LeagueRow, limit int) {
	if len(rows) == 0 {
		return
	}
	n := len(rows)
	if limit > 0 && limit < n {
		n = limit
	}
	fmt.Fprintf(w, "\nstraggler league (top %d of %d ranks by reductions straggled):\n", n, len(rows))
	fmt.Fprintf(w, "  %-6s %-6s %9s %10s %7s %12s %12s\n",
		"rank", "shard", "reduces", "straggled", "share", "wait-mean", "wait-total")
	for _, r := range rows[:n] {
		shard := "-"
		if r.Shard >= 0 {
			shard = fmt.Sprintf("%d", r.Shard)
		}
		fmt.Fprintf(w, "  %-6d %-6s %9d %10d %6.1f%% %10.3fµs %10.3fms\n",
			r.Rank, shard, r.Reduces, r.Straggled,
			float64(r.Straggled)/float64(r.Reduces)*100, r.WaitMean*1e6, r.WaitTotal*1e3)
	}

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
	ids := make([]int, 0, len(byShard))
	for id := range byShard {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fmt.Fprintf(w, "\nworker-shard rollup (%d shards):\n", len(ids))
	fmt.Fprintf(w, "  %-6s %6s %9s %10s %12s\n",
		"shard", "ranks", "reduces", "straggled", "wait-total")
	for _, id := range ids {
		a := byShard[id]
		fmt.Fprintf(w, "  %-6d %6d %9d %10d %10.3fms\n",
			id, a.ranks, a.reduces, a.straggled, a.wait*1e3)
	}
}
