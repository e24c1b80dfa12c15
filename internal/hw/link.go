package hw

import (
	"time"

	"linefs/internal/sim"
	"linefs/internal/stats"
)

// Link models an interconnect segment — a PCIe path, a NIC port, a memory
// channel — with store-and-forward serialization at a fixed bandwidth plus
// propagation latency. Concurrent transfers share the bandwidth by queueing
// on the link's channel resource; propagation latency does not occupy the
// channel.
type Link struct {
	Env  *sim.Env
	Name string
	// Lat is the propagation latency added after serialization.
	Lat time.Duration
	// BytesPerSec is the serialization bandwidth.
	BytesPerSec float64
	// MaxSeg bounds a single serialization grant so huge transfers do not
	// starve small ones (0 = unbounded).
	MaxSeg int

	ch *sim.Resource

	// Bytes counts all bytes transferred; Series optionally buckets them
	// over time for bandwidth plots.
	Bytes  stats.Counter
	Series *stats.TimeSeries
}

// NewLink creates a link with one serialization channel.
func NewLink(env *sim.Env, name string, lat time.Duration, bytesPerSec float64) *Link {
	return NewLanedLink(env, name, lat, bytesPerSec, 1)
}

// NewLanedLink creates a link whose bandwidth is split across lanes
// channels (interleaved PM DIMMs, multi-lane PCIe): small transfers are not
// serialized behind large ones on a different lane.
func NewLanedLink(env *sim.Env, name string, lat time.Duration, bytesPerSec float64, lanes int) *Link {
	if lanes < 1 {
		lanes = 1
	}
	return &Link{
		Env:         env,
		Name:        name,
		Lat:         lat,
		BytesPerSec: bytesPerSec / float64(lanes),
		MaxSeg:      256 << 10,
		ch:          sim.NewResource(env, lanes),
	}
}

// SerializeTime returns the time to push n bytes through the link at full
// bandwidth.
func (l *Link) SerializeTime(n int) time.Duration {
	return time.Duration(float64(n) / l.BytesPerSec * float64(time.Second))
}

// Transfer moves n bytes across the link, blocking for serialization under
// contention and then for propagation latency. prio orders waiters. A
// process killed mid-transfer releases the channel as it unwinds.
func (l *Link) Transfer(p *sim.Proc, n int, prio int) {
	l.serialize(p, n, prio)
	if l.Lat > 0 {
		p.Sleep(l.Lat)
	}
}

func (l *Link) serialize(p *sim.Proc, n, prio int) {
	l.account(n)
	remaining := n
	for remaining > 0 {
		seg := remaining
		if l.MaxSeg > 0 && seg > l.MaxSeg {
			seg = l.MaxSeg
		}
		func() {
			l.ch.Acquire(p, prio)
			defer l.ch.Release()
			p.Sleep(l.SerializeTime(seg))
		}()
		remaining -= seg
	}
}

func (l *Link) account(n int) {
	l.Bytes.Add(int64(n))
	if l.Series != nil {
		l.Series.Add(time.Duration(l.Env.Now()), float64(n))
	}
}
