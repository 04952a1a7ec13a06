package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	for _, v := range []int64{1, 2, 4, 8, 1000} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d", h.Max())
	}
	if mean := h.Mean(); math.Abs(mean-203) > 0.5 {
		t.Fatalf("Mean = %f", mean)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	// Quantiles are bucket upper bounds: q(0.5) must be >= the true
	// median and within one power of two of it.
	q50 := h.Quantile(0.5)
	if q50 < 500 || q50 > 1024 {
		t.Fatalf("q50 = %d, want in [500, 1024]", q50)
	}
	q100 := h.Quantile(1.0)
	if q100 < 1000 {
		t.Fatalf("q100 = %d", q100)
	}

	// A max sitting low in its bucket [2048, 4096): the bucket edge 4095
	// bounds every quantile that lands there, but the max bounds it tighter.
	var low Histogram
	for _, v := range []int64{100, 200, 2100, 2554} {
		low.Record(v)
	}
	for _, q := range []float64{0.5, 0.75, 0.99, 1.0} {
		if got := low.Quantile(q); got > low.Max() {
			t.Errorf("Quantile(%v) = %d exceeds Max() = %d", q, got, low.Max())
		}
	}
	if got := low.Quantile(0.5); got != 255 {
		t.Errorf("Quantile(0.5) = %d, want the bucket edge 255 (below the max, so unclamped)", got)
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(-5)
	if h.Count() != 2 {
		t.Fatal("non-positive samples must still count")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("q50 of zeros = %d", h.Quantile(0.5))
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				h.Record(int64(i + g))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 80_000 {
		t.Fatalf("lost samples: %d", h.Count())
	}
	if h.Max() < 9999 {
		t.Fatalf("Max = %d", h.Max())
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Get() != 4000 {
		t.Fatalf("Counter = %d", c.Get())
	}
	if g.Get() != 0 {
		t.Fatalf("Gauge = %d", g.Get())
	}
	g.Set(42)
	if g.Get() != 42 {
		t.Fatal("Set failed")
	}
}

func TestPeakGauge(t *testing.T) {
	var g PeakGauge
	if g.Get() != 0 || g.Peak() != 0 {
		t.Fatal("zero value not zero")
	}
	g.Set(5)
	g.Set(2)
	if g.Get() != 2 || g.Peak() != 5 {
		t.Fatalf("got (%d, peak %d), want (2, peak 5)", g.Get(), g.Peak())
	}
	g.Add(10)
	if g.Get() != 12 || g.Peak() != 12 {
		t.Fatalf("got (%d, peak %d), want (12, peak 12)", g.Get(), g.Peak())
	}
	g.Add(-12)
	g.Set(-3)
	if g.Get() != -3 || g.Peak() != 12 {
		t.Fatalf("got (%d, peak %d), want (-3, peak 12)", g.Get(), g.Peak())
	}
}

func TestPeakGaugeConcurrent(t *testing.T) {
	var g PeakGauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Get() != 0 {
		t.Fatalf("gauge = %d after balanced adds", g.Get())
	}
	if p := g.Peak(); p < 1 || p > 8 {
		t.Fatalf("peak = %d, want within [1, 8]", p)
	}
}

// BenchmarkHistogramRecord prices one sample, spread over 20 buckets.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i&(1<<20-1)) + 1)
	}
}

// BenchmarkCounterAdd prices one increment.
func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// TestRecordAllocs: recording a sample or adding to a counter allocates
// nothing (the benchmarks' recorded allocs/op).
func TestRecordAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	if a := testing.AllocsPerRun(1000, func() { h.Record(12345) }); a > 0 {
		t.Fatalf("Histogram.Record makes %.1f allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { c.Add(1) }); a > 0 {
		t.Fatalf("Counter.Add makes %.1f allocations, want 0", a)
	}
}
