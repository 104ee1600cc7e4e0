package core

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/perfmodel"
)

var updateFingerprints = flag.Bool("update-fingerprints", false,
	"rewrite testdata/solve_fingerprints.txt from this build's solves")

const fingerprintFile = "testdata/solve_fingerprints.txt"

// fingerprint solves one configuration and renders everything a refactor of
// the solve path must not move: the exact counts, and one FNV-64 over the
// residual history, the interval events, the solution bits and the priced
// virtual clock (which pins the order and size of every AddFlops call and
// every collective between them).
func fingerprint(s *Session, m Method, b []float64) string {
	res, x, err := s.SolveContext(context.Background(), m, b, nil)
	outcome := "ok"
	switch {
	case errors.Is(err, ErrNotConverged):
		outcome = "notconverged"
	case err != nil:
		outcome = "error"
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	if res.Trace != nil {
		for _, p := range res.Trace.Residuals {
			word(uint64(p.Iter))
			word(math.Float64bits(p.RelResidual))
		}
		for _, ev := range res.Trace.Intervals {
			word(uint64(ev.Iter))
			h.Write([]byte(ev.Kind))
			word(math.Float64bits(ev.Nu))
			word(math.Float64bits(ev.Mu))
		}
	}
	for _, v := range x {
		word(math.Float64bits(v))
	}
	word(math.Float64bits(res.Stats.MaxClock))
	return fmt.Sprintf("iters=%d converged=%t outcome=%s reductions=%d halo_msgs=%d flops=%d fnv=%016x",
		res.Iterations, res.Converged, outcome, res.Stats.Sum.Reductions,
		res.Stats.Sum.HaloMsgs, res.Stats.Sum.Flops, h.Sum64())
}

// TestSolveFingerprints pins every method × preconditioner × decomposition
// × tolerance against a committed table: two solves per configuration on
// one session (the second on warm arenas and an advanced noise sequence) on
// a world priced as Yellowstone. The table was generated at the commit
// before the Krylov driver replaced the five hand-written solve loops; a
// change to the solve path that moves a bit, a flop or a message shows up
// as a row diff here. Regenerate with -update-fingerprints only for a
// change that is meant to move numerics, and say which rows moved.
func TestSolveFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints are recorded on amd64 (other targets fuse multiply-adds)")
	}
	if raceEnabled {
		t.Skip("192 solves of pure arithmetic: ~60 s under the race detector, which the other solver tests already cover")
	}
	g := grid.Generate(grid.TestSpec())
	type cfg struct {
		m  Method
		pc PrecondType
	}
	var cfgs []cfg
	for _, m := range []Method{MethodChronGear, MethodPCG, MethodPCSI, MethodSStep} {
		for _, pc := range []PrecondType{PrecondIdentity, PrecondDiagonal, PrecondEVP, PrecondBlockLU} {
			if m == MethodPCSI && pc == PrecondIdentity {
				cfgs = append(cfgs, cfg{MethodCSI, pc}) // plain CSI is P-CSI without a preconditioner
				continue
			}
			cfgs = append(cfgs, cfg{m, pc})
		}
	}
	var got []string
	for _, blocking := range [][2]int{{64, 48}, {16, 12}, {8, 8}} {
		f := newFixture(t, g, blocking[0], blocking[1], 20000)
		w, err := comm.NewWorld(f.d, perfmodel.Yellowstone())
		if err != nil {
			t.Fatal(err)
		}
		f.w = w
		for _, c := range cfgs {
			for _, tol := range []float64{1e-9, 1e-13} {
				maxIters := 1000
				if c.m == MethodCSI {
					maxIters = 300 // never converges here; 300 iterations pin it as well as 1000
				}
				s := f.session(t, Options{Precond: c.pc, Tol: tol, MaxIters: maxIters})
				for pass := 1; pass <= 2; pass++ {
					got = append(got, fmt.Sprintf("%v %v %dx%d tol=%g pass=%d: %s", c.m, c.pc,
						blocking[0], blocking[1], tol, pass, fingerprint(s, c.m, f.b)))
				}
			}
		}
	}
	if *updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d rows, this build produces %d", fingerprintFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d moved:\n  want %s\n  got  %s", i+1, want[i], got[i])
		}
	}
}
