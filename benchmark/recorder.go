package main

import (
	"math"
	"slices"
	"sort"
)

// latRec keeps every sample of one timed op class as raw nanoseconds, in
// issue order, in a slice sized before the measured phase. Percentiles are
// exact order statistics, never histogram bucket edges. marks cut the samples
// into the stretches over which the driver took the machine's speed.
type latRec struct {
	ns    []uint32
	marks []mark
}

// mark ends a stretch of samples taken while the machine ran at speed times
// the reference speed.
type mark struct {
	end   int
	speed float64
}

func newLatRec(capacity int) *latRec {
	return &latRec{ns: make([]uint32, 0, capacity), marks: make([]mark, 0, 8192)}
}

func (l *latRec) add(d int64) {
	if d > math.MaxUint32 {
		d = math.MaxUint32 // 4.29 s; every op times out before that
	}
	l.ns = append(l.ns, uint32(d))
}

// mark ends the current stretch, if it holds a sample.
func (l *latRec) mark(speed float64) {
	if n := len(l.marks); len(l.ns) > 0 && (n == 0 || l.marks[n-1].end < len(l.ns)) {
		l.marks = append(l.marks, mark{len(l.ns), speed})
	}
}

func (l *latRec) reset() { l.ns, l.marks = l.ns[:0], l.marks[:0] }

// appendRec adds another recorder's samples and stretches after l's own.
func (l *latRec) appendRec(o *latRec) {
	base := len(l.ns)
	l.ns = append(l.ns, o.ns...)
	for _, m := range o.marks {
		l.marks = append(l.marks, mark{base + m.end, m.speed})
	}
}

// summary returns the median and the 99th percentile at the reference speed,
// in microseconds: every sample is scaled by the machine's speed during the
// stretch it was taken in, and the percentiles are exact nearest-rank order
// statistics over all the scaled samples of the run, so a tail that clusters
// in time — a view-rebuild storm, a stall, a collector cycle — is in the
// number. Samples after the last mark take its speed.
func (l *latRec) summary() (p50us, p99us float64) {
	if len(l.ns) == 0 {
		return 0, 0
	}
	scaled := make([]float64, len(l.ns))
	from, speed := 0, 1.0
	for _, m := range l.marks {
		speed = m.speed
		for i := from; i < m.end; i++ {
			scaled[i] = float64(l.ns[i]) * speed
		}
		from = m.end
	}
	for i := from; i < len(l.ns); i++ {
		scaled[i] = float64(l.ns[i]) * speed
	}
	slices.Sort(scaled)
	return percentile(scaled, 0.50) / 1e3, percentile(scaled, 0.99) / 1e3
}

// exact returns the nearest-rank median and 99th percentile of every sample
// as measured, in microseconds.
func (l *latRec) exact() (p50us, p99us float64) {
	if len(l.ns) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(l.ns)
	slices.Sort(sorted)
	return float64(percentile(sorted, 0.50)) / 1e3, float64(percentile(sorted, 0.99)) / 1e3
}

// percentile returns the nearest-rank p-quantile of sorted.
func percentile[T uint32 | float64](sorted []T, p float64) T {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
