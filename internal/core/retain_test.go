package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
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

// setUpOn builds the test fixture's session on g and sets it up; the
// fixture, which holds g, is dropped on return.
func setUpOn(t *testing.T, g *grid.Grid, opts Options) *Session {
	t.Helper()
	f := newFixture(t, g, 16, 12, 20000)
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

// The Lanczos estimate reads nothing of the grid: on a set-up session whose
// grid has been collected it returns the interval, step count and bound
// history that a session whose grid is still alive returns, bit for bit.
func TestEstimateEigenvaluesWithoutItsGrid(t *testing.T) {
	opts := Options{Precond: PrecondEVP, Tol: 1e-10}
	type estimate struct {
		nu, mu float64
		steps  int
		bounds []EigBound
	}
	estimateOn := func(s *Session) estimate {
		t.Helper()
		nu, mu, steps, err := s.EstimateEigenvalues(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return estimate{nu, mu, steps, slices.Clone(s.EigTrace)}
	}

	f := testFixture(t)
	want := estimateOn(setUpOn(t, f.g, opts))

	g := grid.Generate(grid.TestSpec())
	collected := make(chan struct{})
	runtime.SetFinalizer(g, func(*grid.Grid) { close(collected) })
	s := setUpOn(t, g, opts)
	g = nil
	awaitCollected(t, collected, "the session's grid")
	got := estimateOn(s)

	if math.Float64bits(got.nu) != math.Float64bits(want.nu) || math.Float64bits(got.mu) != math.Float64bits(want.mu) ||
		got.steps != want.steps || len(got.bounds) != len(want.bounds) {
		t.Fatalf("without its grid: [%v, %v] in %d steps (%d bounds); with it: [%v, %v] in %d (%d)",
			got.nu, got.mu, got.steps, len(got.bounds), want.nu, want.mu, want.steps, len(want.bounds))
	}
	for i, b := range want.bounds {
		if got.bounds[i] != b {
			t.Fatalf("bound %d without its grid %+v, with it %+v", i, got.bounds[i], b)
		}
	}
}
