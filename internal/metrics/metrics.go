// Package metrics provides the counters and histograms behind Acheron's
// amplification and delete-persistence reporting.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram records int64 samples (durations, sizes) in power-of-two
// buckets. It is safe for concurrent use.
type Histogram struct {
	buckets [64]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func bucketFor(v int64) int {
	if v <= 0 {
		return 0
	}
	return 64 - bits.LeadingZeros64(uint64(v))
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	b := bucketFor(v)
	if b > 63 {
		b = 63
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketUpperBound returns the inclusive upper edge of bucket b: 0 for the
// first bucket (non-positive samples), 2^b-1 for the power-of-two buckets,
// and math.MaxInt64 for the last.
func BucketUpperBound(b int) int64 {
	switch {
	case b <= 0:
		return 0
	case b >= 63:
		return math.MaxInt64
	}
	return 1<<b - 1
}

// Snapshot returns a point-in-time copy of the per-bucket counts together
// with the total count, sum, and max. The per-bucket loads are not mutually
// atomic; concurrent Records may straddle the copy, which exposition
// tolerates.
func (h *Histogram) Snapshot() (buckets [64]int64, count, sum, max int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.count.Load(), h.sum.Load(), h.max.Load()
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the upper
// edge of the bucket the quantile falls in, or the recorded maximum when
// that is lower (no quantile exceeds the max, and the top occupied bucket is
// rarely full). Returns 0 when empty. The loads are not mutually atomic: a
// concurrent Record may already count in its bucket and not yet in the max.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	var seen int64
	for b := 0; b < 64; b++ {
		seen += h.buckets[b].Load()
		if seen >= target {
			return min(BucketUpperBound(b), h.max.Load())
		}
	}
	return h.max.Load()
}

// Counter is an atomic monotone counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Get returns the current value.
func (c *Counter) Get() int64 { return c.v.Load() }

// Gauge is an atomic last-value metric.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Get returns the current value.
func (g *Gauge) Get() int64 { return g.v.Load() }

// PeakGauge is a gauge that additionally remembers the largest value it has
// ever held — the natural shape for queue depths, where the instantaneous
// value says how backed up the system is now and the peak says how backed
// up it ever got. It is safe for concurrent use.
type PeakGauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Set stores v and raises the peak if v exceeds it.
func (g *PeakGauge) Set(v int64) {
	g.v.Store(v)
	for {
		cur := g.peak.Load()
		if v <= cur || g.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by d, raising the peak if the result exceeds it.
func (g *PeakGauge) Add(d int64) {
	v := g.v.Add(d)
	for {
		cur := g.peak.Load()
		if v <= cur || g.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get returns the current value.
func (g *PeakGauge) Get() int64 { return g.v.Load() }

// Peak returns the largest value the gauge has held.
func (g *PeakGauge) Peak() int64 { return g.peak.Load() }
