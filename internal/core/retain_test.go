package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/grid"
)

// wholeGridHeld lists what a session reaches that is the size of its whole
// grid: a *grid.Grid, or a slice of at least N elements other than the
// output buffer and the mask. A set-up session keeps per-block state, the
// mask and its output buffer, so the list is empty.
func wholeGridHeld(s *Session) []string {
	gridType := reflect.TypeOf((*grid.Grid)(nil))
	allowed := map[uintptr]bool{reflect.ValueOf(s.mask).Pointer(): true}
	if s.outBuf != nil {
		allowed[reflect.ValueOf(s.outBuf).Pointer()] = true
	}
	type seenKey struct {
		p uintptr
		t reflect.Type
	}
	seen := map[seenKey]bool{}
	var held []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice:
			if v.IsNil() {
				return
			}
			k := seenKey{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.Type() == gridType {
				held = append(held, path+" (*grid.Grid)")
				return
			}
			walk(v.Elem(), path)
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice && v.Len() >= s.N() && !allowed[v.Pointer()] {
				held = append(held, fmt.Sprintf("%s (%d × %s)", path, v.Len(), v.Type().Elem()))
			}
			switch v.Type().Elem().Kind() {
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
			}
		}
	}
	walk(reflect.ValueOf(s), "Session")
	return held
}

// awaitCollected runs the collector until done closes (a finalizer ran) and
// fails the test if it never does: something still reaches the object.
func awaitCollected(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	for range 100 {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s was never collected: something still reaches it", what)
}

// setUpOn builds the test fixture's session on g, with inj attached, and
// sets it up; the fixture, which holds g, is dropped on return.
func setUpOn(t *testing.T, g *grid.Grid, inj *faults.Injector, opts Options) *Session {
	t.Helper()
	f := newFixture(t, g, 16, 12, 20000)
	f.w.Faults = inj
	s := f.session(t, opts)
	if err := s.Setup(); err != nil {
		t.Fatal(err)
	}
	return s
}

// A Lanczos estimate keeps none of its workspace: its six vectors are the
// run's own, so no rank's field set gains an eig. entry, no whole-grid probe
// stays on the session, and a second estimate starts from the same state and
// returns the same bits.
func TestEstimateKeepsNoWorkspace(t *testing.T) {
	f := testFixture(t)
	s := f.session(t, Options{Precond: PrecondEVP, Tol: 1e-10})
	nu, mu, steps, err := s.EstimateEigenvalues(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id, rs := range s.perRank {
		for name := range rs.fields {
			if strings.HasPrefix(name, "eig.") {
				t.Errorf("rank %d keeps Lanczos field %q", id, name)
			}
		}
	}
	if _, _, err := s.Solve(MethodPCSI, f.b, nil); err != nil {
		t.Fatal(err)
	}
	if held := wholeGridHeld(s); len(held) > 0 {
		t.Errorf("set-up session holds whole-grid state:\n  %s", strings.Join(held, "\n  "))
	}
	nu2, mu2, steps2, err := s.EstimateEigenvalues(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(nu2) != math.Float64bits(nu) || math.Float64bits(mu2) != math.Float64bits(mu) || steps2 != steps {
		t.Fatalf("second estimate ν=%v μ=%v in %d steps, first ν=%v μ=%v in %d", nu2, mu2, steps2, nu, mu, steps)
	}
}

// Each rank writes the Lanczos probe into its own blocks, and what it
// writes is, bit for bit, the whole-grid hash probe scattered through
// scatterMasked: every padded entry, ring included, with land zeroed.
func TestProbeIsTheScatteredGlobalHash(t *testing.T) {
	for _, shape := range [][2]int{{16, 12}, {7, 5}, {64, 48}} {
		f := newFixture(t, grid.Generate(grid.TestSpec()), shape[0], shape[1], 20000)
		s := f.session(t, Options{Precond: PrecondDiagonal})
		if err := s.Setup(); err != nil {
			t.Fatal(err)
		}
		probe := make([]float64, f.g.N())
		for k, ocean := range f.g.Mask {
			if ocean {
				x := uint64(k) + 0x9E3779B97F4A7C15
				x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
				x = (x ^ (x >> 27)) * 0x94D049BB133111EB
				x ^= x >> 31
				probe[k] = float64(x>>11)/(1<<53) - 0.5
			}
		}
		s.W.RunShards(func(sh *comm.Shard) {
			for _, r := range sh.Each {
				want := s.scatterMasked(r, s.newField(r), probe)
				got := s.newField(r)
				for _, arr := range got {
					for k := range arr {
						arr[k] = math.NaN() // every entry must be written
					}
				}
				s.probeInto(r, got)
				for i := range got {
					if k := slices.IndexFunc(got[i], func(v float64) bool { return math.IsNaN(v) }); k >= 0 {
						t.Errorf("blocks %dx%d, rank %d block %d: entry %d not written", shape[0], shape[1], r.ID, i, k)
						continue
					}
					for k := range got[i] {
						if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
							t.Errorf("blocks %dx%d, rank %d block %d entry %d: probe %v, scattered hash %v",
								shape[0], shape[1], r.ID, i, k, got[i][k], want[i][k])
							break
						}
					}
				}
			}
		})
	}
}

// The ladder's first rung re-estimates the Chebyshev interval, and the
// estimate reads nothing of the grid: on a session whose grid has been
// collected, a diverging P-CSI recovers exactly as it does on one whose grid
// is still alive — same rung, same interval, same iterations and bits.
func TestLadderReEstimatesWithoutItsGrid(t *testing.T) {
	opts := Options{Precond: PrecondEVP, Tol: 1e-10, MaxIters: 3000}
	plan := faults.Plan{Seed: 1, HaloDropProb: 1e-12} // active, ~never fires
	ladder := func(s *Session, b []float64) (Result, []float64) {
		t.Helper()
		s.Nu, s.Mu = 1e-9, 2e-9 // nonsense interval: P-CSI will diverge
		res, x, err := s.SolveResilient(context.Background(), MethodPCSI, b, nil)
		if err != nil || !res.Converged || res.Recovery.Degraded != "re-eig" {
			t.Fatalf("ladder: err=%v converged=%v degraded=%q, want re-eig", err, res.Converged, res.Recovery.Degraded)
		}
		return res, slices.Clone(x)
	}

	f := testFixture(t)
	want, wantX := ladder(setUpOn(t, f.g, faults.New(plan), opts), f.b)

	g := grid.Generate(grid.TestSpec())
	collected := make(chan struct{})
	runtime.SetFinalizer(g, func(*grid.Grid) { close(collected) })
	s := setUpOn(t, g, faults.New(plan), opts)
	g = nil
	awaitCollected(t, collected, "the session's grid")
	got, gotX := ladder(s, f.b)

	if got.Iterations != want.Iterations || got.EigSteps != want.EigSteps ||
		math.Float64bits(got.Nu) != math.Float64bits(want.Nu) ||
		math.Float64bits(got.Mu) != math.Float64bits(want.Mu) ||
		math.Float64bits(got.RelResidual) != math.Float64bits(want.RelResidual) {
		t.Fatalf("without its grid: %d its, %d Lanczos steps, [%v, %v], rel %v; with it: %d, %d, [%v, %v], %v",
			got.Iterations, got.EigSteps, got.Nu, got.Mu, got.RelResidual,
			want.Iterations, want.EigSteps, want.Nu, want.Mu, want.RelResidual)
	}
	for k := range wantX {
		if math.Float64bits(gotX[k]) != math.Float64bits(wantX[k]) {
			t.Fatalf("without its grid the solution bit-differs at %d: %v vs %v", k, gotX[k], wantX[k])
		}
	}
	if trueRelResidual(f, gotX) > 1e-10 {
		t.Fatal("re-eig result misses the tolerance")
	}
}
