package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// Bucket edges follow the Prometheus "le" convention: a value equal to a
// bound belongs to that bound's bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 99, 100, 1e6} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2, 1} // (−∞,1], (1,10], (10,100], (100,+Inf)
	for i, n := range want {
		if got := h.BucketCount(i); got != n {
			t.Errorf("bucket %d: got %d, want %d", i, got, n)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+10+99+100+1e6; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := NewHistogram([]float64{100, 1, 10})
	h.Observe(5)
	if got := h.BucketCount(1); got != 1 {
		t.Errorf("value 5 should land in (1,10]; bucket counts %v %v %v %v",
			h.BucketCount(0), h.BucketCount(1), h.BucketCount(2), h.BucketCount(3))
	}
}

// Counters and histograms must be safe under concurrent writers — run
// with -race (TestGaugeSetMaxConcurrent covers the gauge).
func TestConcurrentMetricUpdates(t *testing.T) {
	var c Counter
	h := NewHistogram([]float64{0.25, 0.5, 0.75})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%4) / 4)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

// SetMax is a high-water mark: concurrent raises in any order end at the
// maximum, and no raise is ever undone by a smaller one landing later.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	const workers, per = 8, 500
	vals := rand.New(rand.NewSource(1)).Perm(workers * per)
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []int) {
			defer wg.Done()
			for _, v := range mine {
				g.SetMax(float64(v))
			}
		}(vals[w*per : (w+1)*per])
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*per-1); got != want {
		t.Errorf("gauge = %g after concurrent SetMax, want the maximum %g", got, want)
	}
	g.SetMax(3)
	if got, want := g.Value(), float64(workers*per-1); got != want {
		t.Errorf("a smaller SetMax lowered the gauge to %g", got)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	rt := tr.Rank(0)
	for i := 0; i < 10; i++ {
		rt.Add(Event{Name: EvCompute, T0: float64(i), T1: float64(i), Iter: -1, Straggler: -1})
	}
	if got := rt.Len(); got != 4 {
		t.Fatalf("retained %d events, want 4", got)
	}
	if got := rt.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := rt.Events()
	for i, e := range evs {
		if want := float64(6 + i); e.T0 != want {
			t.Errorf("event %d: T0 = %g, want %g (oldest-first order after wrap)", i, e.T0, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("tracer dropped = %d, want 6", tr.Dropped())
	}
}

func TestNilTracerDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
}
