// Package obs is the observability layer: counters, gauges and
// fixed-bucket histograms rendered as Prometheus text from fixed tables,
// plus a low-overhead ring-buffered tracer that the virtual-rank runtime
// feeds with per-phase events (compute, halo exchange, global reduction)
// carrying virtual-clock timestamps. Those events leave a process one way —
// Tracer.Tracks → WritePerfetto — and come back one way — ReadPerfetto →
// the same []Track — whichever command recorded them; StragglerLeague and
// AttributeRecord are the analyses over them.
//
// The package mirrors the instrumentation the paper's analysis rests on:
// POP's computation / boundary-update / global-reduction timers (§2.2) and
// the per-iteration residual and eigenvalue-bound histories behind §5.2's
// figures. It deliberately imports nothing above the standard library so the
// comm substrate can depend on it without cycles, and every hot-path hook is
// gated behind a nil check so disabled instrumentation costs one branch and
// zero allocations.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Safe for concurrent
// use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 high-water mark: SetMax is its only writer. A value
// that can fall is read at scrape instead (Series.Value). Safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// SetMax raises the gauge to v if v is larger — a high-water mark that
// concurrent callers can never lower.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram with Prometheus "le" semantics: an
// observation lands in the first bucket whose upper bound is ≥ the value,
// with an implicit +Inf overflow bucket. Safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds (inclusive)
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCount returns the count in bucket i (i == len(bounds) is +Inf).
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// Series is one entry of a fixed exposition table, built when /metrics is
// scraped.
type Series struct {
	// Name is the metric's constant name, without labels.
	Name string
	// Help is its constant one-line description.
	Help string
	// Type is the Prometheus type: "counter", "gauge" or "histogram".
	Type string
	// Value is a counter's or gauge's value, read as the table is built;
	// a counter renders as an integer.
	Value float64
	// Hist is a histogram's source; nil for a counter or gauge.
	Hist *Histogram
}

// WritePrometheus renders the table in the Prometheus text exposition
// format, in table order.
func WritePrometheus(w io.Writer, table []Series) error {
	for _, s := range table {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.Name, s.Help, s.Name, s.Type); err != nil {
			return err
		}
		var err error
		switch {
		case s.Hist != nil:
			err = writePromHistogram(w, s.Name, s.Hist)
		case s.Type == "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", s.Name, int64(s.Value))
		default:
			_, err = fmt.Fprintf(w, "%s %g\n", s.Name, s.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits the _bucket/_sum/_count series for one histogram.
func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.BucketCount(i)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += h.BucketCount(len(h.bounds))
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
		name, cum, name, h.Sum(), name, h.Count())
	return err
}
