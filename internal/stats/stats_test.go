package stats

import (
	"testing"
	"time"
)

func TestLatencyPercentiles(t *testing.T) {
	t.Parallel()
	var l Latency
	for i := 1; i <= 1000; i++ {
		l.Add(time.Duration(i) * time.Microsecond)
	}
	if got := l.Percentile(50); got != 500*time.Microsecond {
		t.Errorf("p50 = %v, want 500us", got)
	}
	if got := l.Percentile(99); got != 990*time.Microsecond {
		t.Errorf("p99 = %v, want 990us", got)
	}
	if got := l.Percentile(99.9); got != 999*time.Microsecond {
		t.Errorf("p99.9 = %v, want 999us", got)
	}
	if got := l.Max(); got != 1000*time.Microsecond {
		t.Errorf("max = %v, want 1000us", got)
	}
	if got := l.Min(); got != 1*time.Microsecond {
		t.Errorf("min = %v, want 1us", got)
	}
	if got := l.Mean(); got != 500500*time.Nanosecond {
		t.Errorf("mean = %v, want 500.5us", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	t.Parallel()
	var l Latency
	if l.Mean() != 0 || l.Percentile(99) != 0 || l.N() != 0 {
		t.Error("empty latency should report zeros")
	}
}

func TestLatencyAddAfterPercentile(t *testing.T) {
	t.Parallel()
	var l Latency
	l.Add(10)
	_ = l.Percentile(50)
	l.Add(5)
	if got := l.Min(); got != 5 {
		t.Errorf("min after re-add = %v, want 5", got)
	}
}

// TestCounterRate pins what a rate is computed from: the counter starts at
// zero and accumulates every Add.
func TestCounterRate(t *testing.T) {
	t.Parallel()
	var c Counter
	if c.Total() != 0 {
		t.Errorf("zero Counter total = %d", c.Total())
	}
	c.Add(1e6)
	c.Add(1e6)
	if got := c.Total(); got != 2e6 {
		t.Errorf("Total = %d, want 2e6", got)
	}
}

func TestTimeSeries(t *testing.T) {
	t.Parallel()
	ts := NewTimeSeries(time.Second)
	ts.Add(100*time.Millisecond, 10)
	ts.Add(900*time.Millisecond, 5)
	ts.Add(2500*time.Millisecond, 7)
	b := ts.Buckets()
	if len(b) != 3 || b[0] != 15 || b[1] != 0 || b[2] != 7 {
		t.Fatalf("buckets = %v", b)
	}
	r := ts.Rate()
	if r[0] != 15 {
		t.Fatalf("rate[0] = %v", r[0])
	}
}

func TestUtilization(t *testing.T) {
	t.Parallel()
	u := NewUtilization()
	u.Add("dfs", 2*time.Second)
	u.Add("app", 500*time.Millisecond)
	u.Add("dfs", time.Second)
	if got := u.Percent("dfs", time.Second); got != 300 {
		t.Errorf("dfs percent = %v, want 300 (3 cores busy)", got)
	}
	if got := u.Percent("app", time.Second); got != 50 {
		t.Errorf("app percent = %v, want 50", got)
	}
	if u.TotalBusy() != 3500*time.Millisecond {
		t.Errorf("total busy = %v", u.TotalBusy())
	}
	tags := u.Tags()
	if len(tags) != 2 || tags[0] != "app" || tags[1] != "dfs" {
		t.Errorf("tags = %v", tags)
	}
}
