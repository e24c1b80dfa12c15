package hw

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"linefs/internal/sim"
)

// linkXfer is one transfer of a randomized link schedule: what it asks for
// and when it returns.
type linkXfer struct {
	at, n, prio int
	done        sim.Time
}

// runLinkSchedule puts every transfer on a fresh 1 GB/s link at its arrival
// time and returns the link.
func runLinkSchedule(xs []*linkXfer) *Link {
	e := sim.NewEnv(1)
	l := NewLink(e, "l", 0, 1e9)
	for _, x := range xs {
		e.Go("tx", func(p *sim.Proc) {
			p.Sleep(time.Duration(x.at))
			l.Transfer(p, x.n, x.prio)
			x.done = p.Now()
		})
	}
	e.Run()
	return l
}

// serviceTime is what n bytes occupy l for: the sum of its grants'
// serialization.
func serviceTime(l *Link, n int) sim.Time {
	var d time.Duration
	for ; n > l.MaxSeg; n -= l.MaxSeg {
		d += l.SerializeTime(l.MaxSeg)
	}
	return sim.Time(d + l.SerializeTime(n))
}

// TestLinkPreemptionProperties checks the priority rule of hw.Link over
// random arrivals: a preempted transfer ends exactly the preemptors'
// serialization later, the link is work-conserving and never serves more
// than BytesPerSec, and one priority stays FIFO in MaxSeg grants. It also
// pins what a sender killed mid-transfer leaves reserved.
func TestLinkPreemptionProperties(t *testing.T) {
	t.Parallel()
	seg := NewLink(sim.NewEnv(1), "l", 0, 1e9).MaxSeg
	rng := rand.New(rand.NewSource(30))

	t.Run("preempted bulk ends exactly the preemptors' time later", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			bulk := &linkXfer{n: 1 + rng.Intn(4*seg)}
			xs := []*linkXfer{bulk}
			for k := rng.Intn(9); k > 0; k-- {
				// Every preemptor arrives before the bulk's own serialization
				// is over, so each one lands while it is still in service.
				xs = append(xs, &linkXfer{at: rng.Intn(bulk.n), n: 1 + rng.Intn(2*seg), prio: 1 + rng.Intn(9)})
			}
			l := runLinkSchedule(xs)
			var want sim.Time
			for _, x := range xs {
				want += serviceTime(l, x.n)
			}
			if bulk.done != want {
				t.Fatalf("trial %d: bulk of %d B preempted by %d transfers ended at %v, want %v", trial, bulk.n, len(xs)-1, bulk.done, want)
			}
		}
	})

	t.Run("work-conserving, FIFO within a priority", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			var xs []*linkXfer
			for i := 5 + rng.Intn(20); i > 0; i-- {
				n := 1 + rng.Intn(seg)
				if rng.Intn(3) == 0 {
					n += rng.Intn(2 * seg) // several grants
				}
				xs = append(xs, &linkXfer{at: rng.Intn(2 << 20), n: n, prio: 4 * rng.Intn(3)})
			}
			l := runLinkSchedule(xs)

			// Busy time is the union of [arrival, return): with Lat 0 the link
			// has work exactly while some transfer has not returned.
			var served, busy, reach sim.Time
			byArrival := append([]*linkXfer(nil), xs...)
			sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].at < byArrival[j].at })
			for _, x := range byArrival {
				served += serviceTime(l, x.n)
				from := max(sim.Time(x.at), reach)
				if x.done > from {
					busy += x.done - from
					reach = x.done
				}
			}
			if served > busy {
				t.Fatalf("trial %d: %v of serialization in %v busy: the link served above BytesPerSec", trial, served, busy)
			}
			if served != busy {
				t.Fatalf("trial %d: %v of serialization in %v busy: the link idled with work queued", trial, served, busy)
			}
			for i, a := range byArrival {
				for _, b := range byArrival[i+1:] {
					if a.prio == b.prio && a.at < b.at && a.n <= seg && b.n <= seg && a.done > b.done {
						t.Fatalf("trial %d: prio %d: one-grant transfer at %d returned after one at %d", trial, a.prio, a.at, b.at)
					}
				}
			}
		}

		// Two equal-priority transfers of two grants each alternate grants.
		a, b := &linkXfer{n: 2 * seg}, &linkXfer{at: 1, n: 2 * seg}
		l := runLinkSchedule([]*linkXfer{a, b})
		if d := serviceTime(l, seg); a.done != 3*d || b.done != 4*d {
			t.Errorf("two 2-grant transfers returned at %v and %v, want %v and %v", a.done, b.done, 3*d, 4*d)
		}
	})

	// A killed sender frees what it has not sent, at once — except that a
	// segment it preempted keeps the stretch it was given, so the killed
	// segment's unsent rest stays reserved below it.
	t.Run("killed sender", func(t *testing.T) {
		const d = 1000 // ns of serialization at 1 GB/s
		cases := []struct {
			name string
			xs   []*linkXfer
			kill int // index of the transfer killed, at killAt
			// want is when each transfer returns (-1: killed).
			want []sim.Time
		}{
			{"in service: the next of its priority starts", []*linkXfer{{n: 2 * d}, {at: 1, n: d}}, 0, []sim.Time{-1, d/2 + d}},
			{"preemptor: its rest stays reserved", []*linkXfer{{n: d}, {at: d / 4, n: d, prio: 8}}, 1, []sim.Time{2 * d, -1}},
			{"preempted: nothing stays reserved", []*linkXfer{{n: d}, {at: d / 4, n: d, prio: 8}, {at: 1, n: d}}, 0, []sim.Time{-1, d/4 + d, d/4 + 2*d}},
		}
		for _, c := range cases {
			e := sim.NewEnv(1)
			l := NewLink(e, "l", 0, 1e9)
			var victim *sim.Proc
			for i, x := range c.xs {
				x.done = -1
				pr := e.Go(fmt.Sprint("tx", i), func(p *sim.Proc) {
					p.Sleep(time.Duration(x.at))
					l.Transfer(p, x.n, x.prio)
					x.done = p.Now()
				})
				if i == c.kill {
					victim = pr
				}
			}
			e.Go("killer", func(p *sim.Proc) {
				p.Sleep(d / 2)
				victim.Kill()
			})
			e.Run()
			for i, x := range c.xs {
				if x.done != c.want[i] {
					t.Errorf("%s: transfer %d returned at %v, want %v", c.name, i, x.done, c.want[i])
				}
			}
		}
	})
}
