// Package stats provides measurement primitives for simulation experiments:
// exact-percentile latency recorders, throughput counters, bandwidth time
// series, and CPU utilization trackers.
package stats

import (
	"math"
	"sort"
	"time"
)

// Latency records duration samples and reports exact order statistics.
// The zero value is ready to use.
type Latency struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latency) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// N returns the number of samples.
func (l *Latency) N() int { return len(l.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (l *Latency) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 with no samples.
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	// Subtract a tiny epsilon so e.g. 99.9% of 1000 samples yields rank 999,
	// not 1000 via floating-point round-up.
	rank := int(math.Ceil(p/100*float64(len(l.samples)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.samples) {
		rank = len(l.samples)
	}
	return l.samples[rank-1]
}

// Max returns the largest sample.
func (l *Latency) Max() time.Duration { return l.Percentile(100) }

// Min returns the smallest sample, or 0 with no samples.
func (l *Latency) Min() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.Percentile(100) // force sort
	return l.samples[0]
}

// Counter accumulates a monotonically growing quantity (bytes, ops).
type Counter struct {
	total int64
}

// Add increments the counter.
//
//linefs:hotpath
func (c *Counter) Add(n int64) { c.total += n }

// Total returns the accumulated value.
func (c *Counter) Total() int64 { return c.total }

// TimeSeries buckets a quantity into fixed-width windows of virtual time,
// e.g. network bytes per second for Figure 9/10-style plots.
type TimeSeries struct {
	Width   time.Duration
	buckets []float64
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(width time.Duration) *TimeSeries {
	if width <= 0 {
		panic("stats: time series bucket width must be positive")
	}
	return &TimeSeries{Width: width}
}

// Add accumulates v into the bucket containing time t.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	idx := int(t / ts.Width)
	for len(ts.buckets) <= idx {
		ts.buckets = append(ts.buckets, 0)
	}
	ts.buckets[idx] += v
}

// Buckets returns the accumulated values per window.
func (ts *TimeSeries) Buckets() []float64 { return ts.buckets }

// Rate returns per-second rates for each bucket (value / bucket width).
func (ts *TimeSeries) Rate() []float64 {
	out := make([]float64, len(ts.buckets))
	sec := ts.Width.Seconds()
	for i, v := range ts.buckets {
		out[i] = v / sec
	}
	return out
}

// Utilization accumulates busy time per tag against a set of workers
// (e.g. CPU cores), reporting utilization the way the paper does
// (100% = 1 core fully busy).
type Utilization struct {
	busy map[string]time.Duration
}

// NewUtilization creates an empty tracker.
func NewUtilization() *Utilization {
	return &Utilization{busy: make(map[string]time.Duration)}
}

// Add charges busy time d to tag.
//
//linefs:hotpath
func (u *Utilization) Add(tag string, d time.Duration) {
	u.busy[tag] += d
}

// Busy returns the accumulated busy time for tag.
func (u *Utilization) Busy(tag string) time.Duration { return u.busy[tag] }

// TotalBusy returns the busy time summed over all tags.
func (u *Utilization) TotalBusy() time.Duration {
	var sum time.Duration
	for _, d := range u.busy {
		sum += d
	}
	return sum
}

// Percent returns busy(tag)/elapsed as a percentage where 100% equals one
// fully-busy core, matching Table 1's convention.
func (u *Utilization) Percent(tag string, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(u.busy[tag]) / float64(elapsed)
}

// Tags returns all tags with recorded busy time, sorted.
func (u *Utilization) Tags() []string {
	tags := make([]string, 0, len(u.busy))
	for t := range u.busy {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}
