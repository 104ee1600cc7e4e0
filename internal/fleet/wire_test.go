package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
		{"circuit open", fmt.Errorf("serve: key test/pcsi/evp quarantined: %w", serve.ErrCircuitOpen), serve.ErrCircuitOpen},
		{"bad spec", fmt.Errorf("serve: rhs length 3, want 3072: %w", core.ErrBadSpec), core.ErrBadSpec},
		{"field error", &api.FieldError{Field: "method", Value: "warp"}, core.ErrBadSpec},
		{"not converged", &core.NotConvergedError{Solver: "pcsi", Iterations: 9}, core.ErrNotConverged},
		{"faulted", &core.FaultedError{Solver: "pcsi", Restores: 200}, core.ErrFaulted},
		{"deadline", fmt.Errorf("serve: expired in queue: %w", context.DeadlineExceeded), context.DeadlineExceeded},
		{"cancelled", fmt.Errorf("serve: request abandoned: %w", context.Canceled), context.Canceled},
		{"all shards shed", fmt.Errorf("fleet: all 2 shards shed the request: %w", serve.ErrCircuitOpen), serve.ErrCircuitOpen},
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
