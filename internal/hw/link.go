package hw

import (
	"time"

	"linefs/internal/sim"
	"linefs/internal/stats"
)

// Link models an interconnect segment — a PCIe path, a NIC port, a memory
// channel — with store-and-forward serialization at a fixed bandwidth plus
// propagation latency, which does not occupy the link.
//
// Priorities arbitrate per packet, as RoCE traffic classes and PCIe virtual
// channels do: a segment above the priority in service is served at once, and
// the segment it preempts is stretched by exactly its serialization, so the
// link never serves more than BytesPerSec. One priority queues FIFO in MaxSeg
// grants.
type Link struct {
	Env  *sim.Env
	Name string
	// Lat is the propagation latency added after serialization.
	Lat time.Duration
	// BytesPerSec is the serialization bandwidth.
	BytesPerSec float64
	// MaxSeg bounds a single serialization grant so huge transfers do not
	// starve small ones of their priority.
	MaxSeg int

	classes []*linkClass // one per priority carried so far

	// Bytes counts all bytes transferred.
	Bytes stats.Counter
}

// linkClass is one priority's FIFO channel and the end of its segment in
// service (0: none).
type linkClass struct {
	prio int
	ch   *sim.Resource
	end  sim.Time
}

// NewLink creates an idle link with 256 KiB grants.
func NewLink(env *sim.Env, name string, lat time.Duration, bytesPerSec float64) *Link {
	return &Link{Env: env, Name: name, Lat: lat, BytesPerSec: bytesPerSec, MaxSeg: 256 << 10}
}

// SerializeTime returns the time to push n bytes through the link at full
// bandwidth.
func (l *Link) SerializeTime(n int) time.Duration {
	return time.Duration(float64(n) / l.BytesPerSec * float64(time.Second))
}

// Transfer moves n bytes across the link at priority prio, blocking for
// serialization under contention and then for propagation latency. A sender
// killed mid-transfer frees the link at once, but a segment it had preempted
// keeps its stretch: the killed segment's unsent rest stays reserved.
func (l *Link) Transfer(p *sim.Proc, n int, prio int) {
	l.Bytes.Add(int64(n))
	c := l.class(prio)
	for ; n > 0; n -= l.MaxSeg {
		l.segment(p, c, l.SerializeTime(min(n, l.MaxSeg)))
	}
	if l.Lat > 0 {
		p.Sleep(l.Lat)
	}
}

func (l *Link) class(prio int) *linkClass {
	var c *linkClass
	for _, o := range l.classes {
		if o.prio == prio {
			c = o
			break
		}
	}
	if c == nil { // the first segment at prio
		c = &linkClass{prio: prio, ch: sim.NewResource(l.Env, 1)}
		l.classes = append(l.classes, c)
	}
	return c
}

// done takes c's segment out of service and frees its channel, when the
// sender is served or killed.
func (c *linkClass) done() {
	c.end = 0
	c.ch.Release()
}

// segment serves one grant of d on c: after every higher-priority segment in
// service, stretching every lower one by d, whose sender wakes at its old end
// and sleeps the difference.
func (l *Link) segment(p *sim.Proc, c *linkClass, d time.Duration) {
	c.ch.Acquire(p, c.prio)
	defer c.done()
	now := p.Now()
	start := now
	for _, o := range l.classes {
		switch {
		case o.end <= now:
		case o.prio > c.prio:
			start = max(start, o.end)
		default:
			o.end += sim.Time(d)
		}
	}
	for c.end = start + sim.Time(d); c.end > p.Now(); {
		p.Sleep(time.Duration(c.end - p.Now()))
	}
}
