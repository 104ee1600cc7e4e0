package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// skewedCost prices flops with a per-rank skew so reductions have a
// deterministic straggler and every span has nonzero width.
type skewedCost struct{}

func (skewedCost) FlopTime(n int64, rank int, _ int64) float64 {
	return float64(n) * (1 + 0.1*float64(rank)) * 1e-9
}
func (skewedCost) P2PTime(bytes int64) float64   { return 1e-6 + float64(bytes)*1e-9 }
func (skewedCost) ReduceTime(int, int64) float64 { return 2e-6 }

// traceLine mirrors the obs JSONL schema.
type traceLine struct {
	Ev        string   `json:"ev"`
	Rank      int      `json:"rank"`
	Name      string   `json:"name"`
	T         float64  `json:"t"`
	Iter      *int     `json:"iter"`
	Value     *float64 `json:"value"`
	Straggler *int     `json:"straggler"`
	Wait      *float64 `json:"wait"`
}

// The golden trace contract: a tiny solve's JSONL trace parses line by
// line, timestamps are monotone non-decreasing per rank within each run
// segment, span begin/end pairs balance, and the solver events the paper's
// figures need (per-iteration residuals, per-reduction straggler
// attribution, Lanczos bounds) are all present.
func TestSolveTraceJSONLGolden(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal, Tol: 1e-10})
	tracer := obs.NewTracer(1 << 16)
	f.w.Cost = skewedCost{}
	f.w.Tracer = tracer
	defer func() { f.w.Tracer = nil; f.w.Cost = nil }()

	res, _, err := s.Solve(MethodPCSI, f.b, make([]float64, len(f.b)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("test solve did not converge: %+v", res)
	}

	// The Result-attached trace: residual history and eigenvalue bounds.
	if res.Trace == nil || len(res.Trace.Residuals) == 0 {
		t.Fatal("Result.Trace has no residual history")
	}
	prevIter := 0
	for _, p := range res.Trace.Residuals {
		if p.Iter <= prevIter {
			t.Fatalf("residual iters not increasing: %+v", res.Trace.Residuals)
		}
		prevIter = p.Iter
		if p.RelResidual < 0 {
			t.Fatalf("negative residual: %+v", p)
		}
	}
	last := res.Trace.Residuals[len(res.Trace.Residuals)-1]
	if last.RelResidual != res.RelResidual {
		t.Fatalf("last traced residual %g != Result.RelResidual %g", last.RelResidual, res.RelResidual)
	}
	if len(res.Trace.EigBounds) == 0 {
		t.Fatal("P-CSI trace has no Lanczos bound evolution")
	}

	if tracer.Dropped() > 0 {
		t.Fatalf("ring dropped %d events; raise the test capacity", tracer.Dropped())
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	type rankState struct {
		lastT float64
		depth int
		began int
		ended int
	}
	states := make(map[int]*rankState)
	seen := make(map[string]int)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("line %d does not parse: %v: %s", lineNo, err, sc.Text())
		}
		seen[l.Name]++
		st, ok := states[l.Rank]
		if !ok {
			st = &rankState{}
			states[l.Rank] = st
		}
		if l.Name == obs.EvRunBegin {
			// New run segment: the virtual clock restarts; spans must not
			// straddle the boundary.
			if st.depth != 0 {
				t.Fatalf("line %d: run_begin with %d open spans on rank %d", lineNo, st.depth, l.Rank)
			}
			st.lastT = 0
			continue
		}
		if l.T < st.lastT {
			t.Fatalf("line %d: rank %d clock ran backwards (%g after %g)", lineNo, l.Rank, l.T, st.lastT)
		}
		st.lastT = l.T
		switch l.Ev {
		case "B":
			st.depth++
			st.began++
		case "E":
			st.depth--
			st.ended++
			if st.depth < 0 {
				t.Fatalf("line %d: rank %d span end without begin", lineNo, l.Rank)
			}
		case "P":
		default:
			t.Fatalf("line %d: unknown ev %q", lineNo, l.Ev)
		}
		if l.Name == obs.EvReduce && l.Ev == "E" {
			if l.Straggler == nil || *l.Straggler < 0 || *l.Straggler >= f.d.NRanks {
				t.Fatalf("line %d: reduce span without valid straggler: %s", lineNo, sc.Text())
			}
			if l.Wait == nil || *l.Wait < 0 {
				t.Fatalf("line %d: reduce span without wait: %s", lineNo, sc.Text())
			}
		}
		if l.Name == obs.EvResidual {
			if l.Iter == nil || l.Value == nil {
				t.Fatalf("line %d: residual point without iter/value: %s", lineNo, sc.Text())
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for rank, st := range states {
		if st.depth != 0 {
			t.Errorf("rank %d: %d unbalanced spans", rank, st.depth)
		}
		if st.began != st.ended {
			t.Errorf("rank %d: %d begins vs %d ends", rank, st.began, st.ended)
		}
	}
	if len(states) != f.d.NRanks {
		t.Errorf("trace covers %d ranks, want %d", len(states), f.d.NRanks)
	}
	for _, name := range []string{obs.EvCompute, obs.EvHalo, obs.EvReduce, obs.EvResidual, obs.EvEigBound, obs.EvRunBegin} {
		if seen[name] == 0 {
			t.Errorf("trace has no %q events (saw %v)", name, seen)
		}
	}
}

// Disabled tracing must leave Result telemetry intact: the SolveTrace is
// recorded unconditionally (appends only at convergence checks).
func TestSolveTraceWithoutTracer(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondDiagonal})
	res, _, err := s.Solve(MethodChronGear, f.b, make([]float64, len(f.b)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Residuals) == 0 {
		t.Fatal("SolveTrace missing with tracing disabled")
	}
}
