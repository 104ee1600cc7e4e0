package fleet

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/serve"
)

// fleetExposition is a Fleet's /metrics skeleton: the router's series in
// name order with their HELP and TYPE lines and the histogram's bucket
// bounds.
const fleetExposition = `# HELP fleet_cache_hits_total requests answered from the result cache
# TYPE fleet_cache_hits_total counter
fleet_cache_hits_total
# HELP fleet_cache_misses_total requests dispatched to a worker
# TYPE fleet_cache_misses_total counter
fleet_cache_misses_total
# HELP fleet_errors_total requests leaving the router with an error
# TYPE fleet_errors_total counter
fleet_errors_total
# HELP fleet_requests_total requests entering the router
# TYPE fleet_requests_total counter
fleet_requests_total
# HELP fleet_router_seconds router time before dispatch or cache reply
# TYPE fleet_router_seconds histogram
fleet_router_seconds_bucket{le="1e-06"}
fleet_router_seconds_bucket{le="1e-05"}
fleet_router_seconds_bucket{le="0.0001"}
fleet_router_seconds_bucket{le="0.001"}
fleet_router_seconds_bucket{le="0.01"}
fleet_router_seconds_bucket{le="0.1"}
fleet_router_seconds_bucket{le="+Inf"}
fleet_router_seconds_sum
fleet_router_seconds_count
`

// TestFleetExposition pins a Fleet's /metrics text — its series in name
// order, HELP and TYPE lines, bucket bounds, every line a header or
// `name value` — and checks that the fleet_* counts are Stats' router
// counters.
func TestFleetExposition(t *testing.T) {
	f, err := New(Options{Workers: 2, Worker: serve.Options{Solver: core.Options{Tol: 1e-6}}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeFleet(t, f)
	for i, b := range fleetRHS(t, 2) {
		for j := 0; j <= i; j++ { // 1+2 requests: two misses, one hit
			if _, err := f.Solve(context.Background(), Request{Request: serve.Request{
				Grid: grid.PresetTest, Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b,
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := f.Solve(context.Background(), Request{Request: serve.Request{Method: core.Method(99)}}); err == nil {
		t.Fatal("an unknown method was routed")
	}

	var buf bytes.Buffer
	if err := f.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var skeleton strings.Builder
	vals := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			skeleton.WriteString(line + "\n")
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 2 {
			t.Fatalf("exposition line %q is neither a header nor `name value`:\n%s", line, buf.String())
		}
		skeleton.WriteString(fs[0] + "\n")
		vals[fs[0]] = fs[1]
	}
	if skeleton.String() != fleetExposition {
		t.Errorf("exposition skeleton:\n%s\nwant:\n%s", skeleton.String(), fleetExposition)
	}

	fc := f.Stats(context.Background()).Fleet
	if fc.Requests != 4 || fc.CacheHits != 1 || fc.CacheMisses != 2 || fc.Errors != 1 {
		t.Errorf("router counters %+v, want 4 requests, 1 hit, 2 misses, 1 error", *fc)
	}
	for name, want := range map[string]int64{
		"fleet_requests_total":     fc.Requests,
		"fleet_cache_hits_total":   fc.CacheHits,
		"fleet_cache_misses_total": fc.CacheMisses,
		"fleet_errors_total":       fc.Errors,
		// The router times only the answers it gives itself: cache hits.
		"fleet_router_seconds_count": fc.CacheHits,
	} {
		if got := vals[name]; got != strconv.FormatInt(want, 10) {
			t.Errorf("%s = %q, want %d (Stats)", name, got, want)
		}
	}
}
