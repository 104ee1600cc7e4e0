package serve

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// scrape renders svc's /metrics text and splits it into its skeleton —
// every header line as is, every sample line cut to its name — and the
// sample values by name. A line that is neither a header nor `name value`
// fails the test.
func scrape(t *testing.T, svc *Service) (skeleton string, vals map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := svc.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var sk strings.Builder
	vals = make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			sk.WriteString(line + "\n")
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("exposition line %q is neither a header nor `name value`:\n%s", line, buf.String())
		}
		sk.WriteString(f[0] + "\n")
		vals[f[0]] = f[1]
	}
	return sk.String(), vals
}

// serviceExposition is a Service's /metrics skeleton: every series in
// name order with its HELP and TYPE lines and, for a histogram, its bucket
// bounds.
const serviceExposition = `# HELP obs_trace_dropped_total trace events lost to ring-buffer wraparound (truncated traces)
# TYPE obs_trace_dropped_total counter
obs_trace_dropped_total
# HELP serve_batch_size requests coalesced per session checkout
# TYPE serve_batch_size histogram
serve_batch_size_bucket{le="1"}
serve_batch_size_bucket{le="2"}
serve_batch_size_bucket{le="4"}
serve_batch_size_bucket{le="8"}
serve_batch_size_bucket{le="16"}
serve_batch_size_bucket{le="32"}
serve_batch_size_bucket{le="+Inf"}
serve_batch_size_sum
serve_batch_size_count
# HELP serve_batches_total session checkouts (batches)
# TYPE serve_batches_total counter
serve_batches_total
# HELP serve_errors_total solves returning an error
# TYPE serve_errors_total counter
serve_errors_total
# HELP serve_expired_total requests expired in queue before solving
# TYPE serve_expired_total counter
serve_expired_total
# HELP serve_latency_seconds request latency (admission to response)
# TYPE serve_latency_seconds histogram
serve_latency_seconds_bucket{le="0.0001"}
serve_latency_seconds_bucket{le="0.0003"}
serve_latency_seconds_bucket{le="0.001"}
serve_latency_seconds_bucket{le="0.003"}
serve_latency_seconds_bucket{le="0.01"}
serve_latency_seconds_bucket{le="0.03"}
serve_latency_seconds_bucket{le="0.1"}
serve_latency_seconds_bucket{le="0.3"}
serve_latency_seconds_bucket{le="1"}
serve_latency_seconds_bucket{le="3"}
serve_latency_seconds_bucket{le="10"}
serve_latency_seconds_bucket{le="+Inf"}
serve_latency_seconds_sum
serve_latency_seconds_count
# HELP serve_queue_depth requests waiting in every key's queue, read at scrape
# TYPE serve_queue_depth gauge
serve_queue_depth
# HELP serve_queue_depth_peak deepest queue observed at admission since service start; high-water mark only, never resets or decays
# TYPE serve_queue_depth_peak gauge
serve_queue_depth_peak
# HELP serve_queue_wait_seconds time between admission and solve start
# TYPE serve_queue_wait_seconds histogram
serve_queue_wait_seconds_bucket{le="1e-05"}
serve_queue_wait_seconds_bucket{le="0.0001"}
serve_queue_wait_seconds_bucket{le="0.001"}
serve_queue_wait_seconds_bucket{le="0.01"}
serve_queue_wait_seconds_bucket{le="0.1"}
serve_queue_wait_seconds_bucket{le="1"}
serve_queue_wait_seconds_bucket{le="+Inf"}
serve_queue_wait_seconds_sum
serve_queue_wait_seconds_count
# HELP serve_requests_total solve admissions attempted
# TYPE serve_requests_total counter
serve_requests_total
# HELP serve_sessions warmed sessions across all keys
# TYPE serve_sessions gauge
serve_sessions
# HELP serve_shed_total requests shed with ErrOverloaded
# TYPE serve_shed_total counter
serve_shed_total
# HELP serve_solves_total solves executed
# TYPE serve_solves_total counter
serve_solves_total
`

// TestServiceExposition pins a Service's /metrics text: its series in name
// order, their HELP and TYPE lines and bucket bounds, and counts that agree
// with Snapshot and the trace export. The ring is tiny so the export has
// drops to report.
func TestServiceExposition(t *testing.T) {
	svc := tracedService(t, Options{TraceCapacity: 8, Solver: core.Options{Tol: 1e-8}})
	req := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: gridRHS(t)}
	for i := 0; i < 3; i++ {
		if _, err := svc.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Solve(context.Background(), Request{Method: core.Method(99)}); err == nil {
		t.Fatal("an unknown method was admitted")
	}
	_, dropped := svc.ExportTracks()
	if dropped == 0 {
		t.Fatal("an 8-event ring reported no drops")
	}

	skeleton, vals := scrape(t, svc)
	if skeleton != serviceExposition {
		t.Errorf("exposition skeleton:\n%s\nwant:\n%s", skeleton, serviceExposition)
	}
	st := svc.Snapshot()
	for name, want := range map[string]int64{
		"obs_trace_dropped_total":            dropped,
		"serve_requests_total":               st.Requests,
		"serve_solves_total":                 st.Solves,
		"serve_batches_total":                st.Batches,
		"serve_errors_total":                 st.Errors,
		"serve_expired_total":                st.Expired,
		"serve_shed_total":                   st.Shed,
		"serve_sessions":                     st.Sessions,
		"serve_latency_seconds_count":        3,
		"serve_queue_wait_seconds_count":     3,
		`serve_batch_size_bucket{le="1"}`:    st.Batches,
		`serve_batch_size_bucket{le="+Inf"}`: st.Batches,
	} {
		if got := vals[name]; got != strconv.FormatInt(want, 10) {
			t.Errorf("%s = %q, want %d", name, got, want)
		}
	}
	if st.Requests != 4 || st.Solves != 3 || st.Sessions != 1 {
		t.Errorf("snapshot %+v, want 4 requests, 3 solves, 1 session", st)
	}
}

// TestQueueDepthSumsPools: serve_queue_depth is the service's backlog, the
// sum over every key's queue, not the depth of whichever pool last touched
// it. Key A's only session is held busy with three requests queued behind
// it; a solve on key B must not hide them.
func TestQueueDepthSumsPools(t *testing.T) {
	svc := newService(t, Options{MaxSessionsPerKey: 1, MaxBatch: 1, Solver: core.Options{Tol: 1e-8}})
	b := gridRHS(t)
	reqA := Request{Method: core.MethodPCSI, Precond: core.PrecondEVP, B: b}
	if _, err := svc.Solve(context.Background(), reqA); err != nil {
		t.Fatal(err)
	}
	keyA, err := NormalizeRequest(reqA)
	if err != nil {
		t.Fatal(err)
	}
	svc.sessMu.Lock()
	slotA := svc.sess[0]
	svc.sessMu.Unlock()
	svc.mu.RLock()
	poolA := svc.pools[keyA]
	svc.mu.RUnlock()

	// Holding A's session lock parks its worker on the first request it
	// dequeues; the other three stay queued.
	slotA.mu.Lock()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Solve(context.Background(), reqA); err != nil {
				t.Error(err)
			}
		}()
	}
	defer wg.Wait()
	released := false
	defer func() {
		if !released {
			slotA.mu.Unlock()
		}
	}()
	for deadline := time.Now().Add(30 * time.Second); len(poolA.queue) != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("key A's queue holds %d requests, want 3", len(poolA.queue))
		}
	}

	if _, err := svc.Solve(context.Background(),
		Request{Method: core.MethodChronGear, Precond: core.PrecondDiagonal, B: b}); err != nil {
		t.Fatal(err)
	}
	_, vals := scrape(t, svc)
	if got := vals["serve_queue_depth"]; got != "3" {
		t.Errorf("serve_queue_depth = %s with key A's 3 requests queued, want 3", got)
	}
	if got := vals["serve_sessions"]; got != "2" {
		t.Errorf("serve_sessions = %s, want 2", got)
	}
	slotA.mu.Unlock()
	released = true
	wg.Wait()
	if _, vals = scrape(t, svc); vals["serve_queue_depth"] != "0" {
		t.Errorf("serve_queue_depth = %s once drained, want 0", vals["serve_queue_depth"])
	}
}
