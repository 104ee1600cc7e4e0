package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestTypedErrorsSurviveTheFrameHop sends every typed error the solve path
// returns through the wire the way popserver does — StatusFor, an error
// frame under that HTTP status — and requires the HTTPWorker on the other
// side to hand the router an error matching the same target. The two
// documented collapses are rows like any other: their want differs.
func TestTypedErrorsSurviveTheFrameHop(t *testing.T) {
	cases := []struct {
		name string
		err  error // as the worker's service returns it
		want error // what the router must be able to errors.Is
	}{
		{"overloaded", serve.ErrOverloaded, serve.ErrOverloaded},
		{"closed", serve.ErrClosed, serve.ErrClosed},
		{"bad spec", fmt.Errorf("serve: rhs length 3, want 3072: %w", core.ErrBadSpec), core.ErrBadSpec},
		{"field error", &api.FieldError{Field: "method", Value: "warp"}, core.ErrBadSpec},
		{"not converged", &core.NotConvergedError{Solver: "pcsi", Iterations: 9}, core.ErrNotConverged},
		{"faulted", &core.FaultedError{Solver: "pcsi", Restores: 200}, core.ErrFaulted},
		{"deadline", fmt.Errorf("serve: expired in queue: %w", context.DeadlineExceeded), context.DeadlineExceeded},
		{"cancelled", fmt.Errorf("serve: request abandoned: %w", context.Canceled), context.Canceled},
		{"all shards shed", fmt.Errorf("fleet: all 2 shards shed the request: %w", serve.ErrOverloaded), serve.ErrOverloaded},
		// Collapses, by design (see wireErrors).
		{"bad frame", fmt.Errorf("truncated: %w", api.ErrBadFrame), core.ErrBadSpec},
		{"untyped", core.ErrEigEstimate, ErrRemote},
	}

	var reply error
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := StatusFor(reply)
		w.Header().Set("Content-Type", api.ContentTypeFrame)
		w.WriteHeader(status)
		_, _ = w.Write(api.AppendFrameError(nil, status, reply.Error()))
	}))
	defer srv.Close()
	wk := NewHTTPWorker(srv.URL, srv.Client())

	for _, tc := range cases {
		reply = tc.err
		_, err := wk.Solve(context.Background(), serve.Request{B: []float64{1}})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: status %d came back as %v, want errors.Is(%v)", tc.name, StatusFor(tc.err), err, tc.want)
		}
		// The hop must not invent a type either: no other row's target matches.
		for _, row := range wireErrors {
			if row.target != tc.want && errors.Is(err, row.target) {
				t.Errorf("%s: came back also matching %v", tc.name, row.target)
			}
		}
	}

	// One status per target, so the inverse lookup is a function — except
	// the documented 400 shared by ErrBadSpec and ErrBadFrame.
	seen := map[int]error{}
	for _, row := range wireErrors {
		if prev, dup := seen[row.status]; dup {
			if row.target != api.ErrBadFrame {
				t.Errorf("status %d carries both %v and %v", row.status, prev, row.target)
			}
			continue
		}
		seen[row.status] = row.target
	}
}

// hopRequest has no zero-valued field, so a hop that drops one shows.
var hopRequest = serve.Request{Grid: "test", Method: core.MethodSStep, Precond: core.PrecondEVP,
	SStep: 8, B: []float64{1, 2}, X0: []float64{3, 4}}

// TestFrameRequestCarriesEveryServeField is the serve → frame hop, field by
// field: every serve.Request field arrives in its FrameRequest namesake, and
// the frame fields a serve.Request does not have are the four listed, each
// with the value the router means a worker to see.
func TestFrameRequestCarriesEveryServeField(t *testing.T) {
	routerSets := map[string]any{
		"TraceID":   uint64(77), // the router's trace ID, so worker spans correlate
		"ReturnX":   true,       // the router caches and returns the vector itself
		"TimeoutMS": 0,          // the deadline travels as the HTTP request's context
		"NoCache":   false,      // the cache is the router's; workers have none
	}
	sv := reflect.ValueOf(hopRequest)
	fv := reflect.ValueOf(frameRequest(hopRequest, 77))
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if sv.Field(i).IsZero() {
			t.Errorf("serve.Request.%s is zero in the fixture: a dropped field would pass unnoticed", name)
		}
		got := fv.FieldByName(name)
		if !got.IsValid() {
			t.Errorf("serve.Request.%s has no FrameRequest namesake: a remote worker cannot receive it", name)
		} else if !reflect.DeepEqual(got.Interface(), sv.Field(i).Interface()) {
			t.Errorf("frameRequest drops serve.Request.%s: got %v, want %v", name, got, sv.Field(i))
		}
	}
	for i := 0; i < fv.NumField(); i++ {
		name := fv.Type().Field(i).Name
		if sv.FieldByName(name).IsValid() {
			continue
		}
		want, listed := routerSets[name]
		if !listed {
			t.Errorf("FrameRequest.%s is neither a serve.Request field nor one the router sets", name)
		} else if !reflect.DeepEqual(fv.Field(i).Interface(), want) {
			t.Errorf("frameRequest sets FrameRequest.%s = %v, want %v", name, fv.Field(i), want)
		}
	}
}

// TestCacheKeyCoversEveryServeField: changing any one field of a request
// changes the result-cache key it is stored under — the hop where a field
// the key forgot would replay another solve's bits.
func TestCacheKeyCoversEveryServeField(t *testing.T) {
	f, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(context.Background())
	other := serve.Request{Grid: "1deg", Method: core.MethodPCG, Precond: core.PrecondDiagonal,
		SStep: 4, B: []float64{1, 3}, X0: []float64{3, 5}}
	_, base, err := f.cacheKey(hopRequest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reflect.TypeOf(hopRequest).NumField(); i++ {
		name := reflect.TypeOf(hopRequest).Field(i).Name
		req := hopRequest
		reflect.ValueOf(&req).Elem().Field(i).Set(reflect.ValueOf(other).Field(i))
		if reflect.DeepEqual(req, hopRequest) {
			t.Errorf("serve.Request.%s: the perturbed fixture does not differ", name)
		}
		if _, key, err := f.cacheKey(req); err != nil {
			t.Errorf("%s perturbed: %v", name, err)
		} else if key == base {
			t.Errorf("the cache key ignores serve.Request.%s", name)
		}
	}
}
