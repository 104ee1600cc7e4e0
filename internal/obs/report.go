package obs

import (
	"fmt"
	"io"
	"sort"
)

// ReduceSummary aggregates per-reduction straggler attribution from a
// trace: which rank's late arrival set each reduction's critical path, and
// how long every other rank waited for it. Counts come from rank 0's event
// stream (one event per reduction per rank; rank 0 sees them all), waits
// from each rank's own events — so if the ring dropped early events the
// summary covers the retained window only.
type ReduceSummary struct {
	Reductions     int             // reductions observed on rank 0
	StragglerCount map[int]int     // rank → reductions it arrived last at
	WaitByRank     map[int]float64 // rank → total virtual seconds waited
	EventsByRank   map[int]int     // rank → reduce events retained
	MaxWait        float64         // worst single wait across ranks
}

// SummarizeReduces scans a trace's reduce spans.
func SummarizeReduces(events []Event) *ReduceSummary {
	s := &ReduceSummary{
		StragglerCount: make(map[int]int),
		WaitByRank:     make(map[int]float64),
		EventsByRank:   make(map[int]int),
	}
	for _, e := range events {
		if e.Name != EvReduce {
			continue
		}
		s.WaitByRank[e.Rank] += e.Wait
		s.EventsByRank[e.Rank]++
		if e.Wait > s.MaxWait {
			s.MaxWait = e.Wait
		}
		if e.Rank == 0 {
			s.Reductions++
			if e.Straggler >= 0 {
				s.StragglerCount[e.Straggler]++
			}
		}
	}
	return s
}

// Fprint renders the straggler-attribution table: per rank, how often it
// was the last to arrive at a reduction and how much time it spent waiting
// for others. A rank that both straggles often and waits little is the
// critical path the paper's §5.2 load-imbalance analysis looks for.
func (s *ReduceSummary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "reduction straggler attribution (%d reductions traced):\n", s.Reductions)
	fmt.Fprintf(w, "%6s  %10s  %14s  %14s\n", "rank", "straggled", "wait_total(s)", "wait_mean(ms)")
	ids := make([]int, 0, len(s.EventsByRank))
	for id := range s.EventsByRank {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n := s.EventsByRank[id]
		mean := 0.0
		if n > 0 {
			mean = s.WaitByRank[id] / float64(n) * 1e3
		}
		fmt.Fprintf(w, "%6d  %10d  %14.6g  %14.6g\n",
			id, s.StragglerCount[id], s.WaitByRank[id], mean)
	}
}
