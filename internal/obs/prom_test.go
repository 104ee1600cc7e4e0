package obs_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestWritePrometheus: a table renders in table order, one HELP and TYPE
// header per series, a counter as an integer, a gauge with %g, and a
// histogram as cumulative buckets closed by +Inf, then _sum and _count.
func TestWritePrometheus(t *testing.T) {
	h := obs.NewHistogram([]float64{1e-6, 1e-3})
	h.Observe(5e-4)
	h.Observe(2)
	var sb strings.Builder
	err := obs.WritePrometheus(&sb, []obs.Series{
		{Name: "pop_reductions_total", Help: "global reductions", Type: "counter", Value: 1e7},
		{Name: "pop_reduce_wait_seconds", Help: "reduction waits", Type: "histogram", Hist: h},
		{Name: "pop_phase_seconds", Help: "virtual seconds", Type: "gauge", Value: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP pop_reductions_total global reductions
# TYPE pop_reductions_total counter
pop_reductions_total 10000000
# HELP pop_reduce_wait_seconds reduction waits
# TYPE pop_reduce_wait_seconds histogram
pop_reduce_wait_seconds_bucket{le="1e-06"} 0
pop_reduce_wait_seconds_bucket{le="0.001"} 1
pop_reduce_wait_seconds_bucket{le="+Inf"} 2
pop_reduce_wait_seconds_sum 2.0005
pop_reduce_wait_seconds_count 2
# HELP pop_phase_seconds virtual seconds
# TYPE pop_phase_seconds gauge
pop_phase_seconds 1.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
