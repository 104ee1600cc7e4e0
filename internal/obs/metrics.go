// Package obs is the observability layer: a metrics registry (counters,
// gauges, fixed-bucket histograms) with Prometheus-style text exposition,
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
	"strings"
	"sync"
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

// Gauge is a float64 metric that can go up and down. Safe for concurrent
// use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

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

// Registry holds named metrics. Metric names may carry Prometheus-style
// labels inline ('pop_phase_seconds{phase="comp"}'); exposition splits the
// base name off for HELP/TYPE lines. Get-or-create accessors are safe for
// concurrent use; a name registered as one kind must not be re-registered as
// another.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // base name → help text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// baseName strips an inline label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.setHelp(name, help)
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.setHelp(name, help)
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; bounds are
// only used on first creation.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
		r.setHelp(name, help)
	}
	return h
}

func (r *Registry) setHelp(name, help string) {
	if help != "" {
		r.help[baseName(name)] = help
	}
}

// splitLabels separates 'base{labels}' into base and the inner label string
// (without braces); labels is "" when absent.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// escapeHelp escapes a HELP line for the Prometheus text format: backslash
// becomes \\ and newline becomes \n (the only two escapes the format
// defines for HELP).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sanitizeLabels re-escapes a rendered inline label set for the Prometheus
// text format. Inside quoted label values, raw newlines become \n and
// backslashes not already starting a format-valid escape (\\, \", \n) are
// doubled; values that were built with %q (already escaped) pass through
// unchanged, so the function is idempotent.
func sanitizeLabels(labels string) string {
	if !strings.ContainsAny(labels, "\\\n") {
		return labels
	}
	var sb strings.Builder
	sb.Grow(len(labels) + 4)
	inQuote := false
	for i := 0; i < len(labels); i++ {
		c := labels[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			sb.WriteByte(c)
		case inQuote && c == '\\':
			if i+1 < len(labels) && (labels[i+1] == '\\' || labels[i+1] == '"' || labels[i+1] == 'n') {
				sb.WriteByte(c)
				i++
				sb.WriteByte(labels[i])
			} else {
				sb.WriteString(`\\`)
			}
		case inQuote && c == '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// sanitizeName applies sanitizeLabels to a metric name's inline label set.
func sanitizeName(name string) string {
	base, labels := splitLabels(name)
	if labels == "" {
		return base
	}
	return base + "{" + sanitizeLabels(labels) + "}"
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	typeOf := make(map[string]string)
	var names []string
	for n := range r.counters {
		names = append(names, n)
		typeOf[baseName(n)] = "counter"
	}
	for n := range r.gauges {
		names = append(names, n)
		typeOf[baseName(n)] = "gauge"
	}
	for n := range r.hists {
		names = append(names, n)
		typeOf[baseName(n)] = "histogram"
	}
	sort.Strings(names)
	headerDone := make(map[string]bool)
	for _, n := range names {
		base := baseName(n)
		if !headerDone[base] {
			headerDone[base] = true
			if h := r.help[base]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, escapeHelp(h)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typeOf[base]); err != nil {
				return err
			}
		}
		var err error
		switch {
		case r.counters[n] != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", sanitizeName(n), r.counters[n].Value())
		case r.gauges[n] != nil:
			_, err = fmt.Fprintf(w, "%s %g\n", sanitizeName(n), r.gauges[n].Value())
		default:
			err = writePromHistogram(w, n, r.hists[n])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits the _bucket/_sum/_count series for one histogram.
func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	base, labels := splitLabels(name)
	labels = sanitizeLabels(labels)
	withLe := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", base, le)
		}
		return fmt.Sprintf("%s_bucket{%s,le=%q}", base, labels, le)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.BucketCount(i)
		if _, err := fmt.Fprintf(w, "%s %d\n", withLe(fmt.Sprintf("%g", b)), cum); err != nil {
			return err
		}
	}
	cum += h.BucketCount(len(h.bounds))
	if _, err := fmt.Fprintf(w, "%s %d\n", withLe("+Inf"), cum); err != nil {
		return err
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", base, suffix, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.Count())
	return err
}
