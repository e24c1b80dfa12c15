package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelEventsPerSec measures raw event-loop throughput: one
// process sleeping in a tight loop, so every iteration is one timer event
// (schedule, heap pop, wake). Reported as events/sec via the inverse of
// ns/op. The benchmark module's sim.timer_events_per_s row runs the same
// loop and is the number tracked from change to change.
func BenchmarkKernelEventsPerSec(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	e.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	e.RunFor(time.Duration(b.N) * time.Microsecond)
	b.StopTimer()
	b.ReportMetric(1e9/float64(b.Elapsed().Nanoseconds())*float64(b.N), "events/sec")
	e.Shutdown()
}

// BenchmarkKernelHandoff measures event throughput when the wake targets
// alternate between processes, forcing a goroutine handoff per event (the
// worst case for the dispatch path).
func BenchmarkKernelHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	for i := 0; i < 2; i++ {
		e.Go("spinner", func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	e.RunFor(time.Duration(b.N/2) * time.Microsecond)
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkResourceContention measures Acquire/Release cycles over a
// contended resource: 8 processes sharing 2 units, each iteration one
// grant (queue push, heap ops, grant wake).
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	r := NewResource(e, 2)
	grants := 0
	for i := 0; i < 8; i++ {
		e.Go("user", func(p *Proc) {
			for {
				r.Acquire(p, 0)
				p.Sleep(time.Microsecond)
				grants++
				r.Release()
			}
		})
	}
	b.ResetTimer()
	for grants < b.N {
		e.RunFor(time.Duration(b.N) * time.Microsecond)
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkQueueThroughput measures producer/consumer pairs over a bounded
// queue: each iteration is one Put plus one Get, exercising the
// handoff-to-getter and admit-putter paths.
func BenchmarkQueueThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	q := NewQueue[int](e, 4)
	moved := 0
	e.Go("prod", func(p *Proc) {
		for i := 0; ; i++ {
			q.Put(p, i)
			p.Sleep(time.Microsecond)
		}
	})
	e.Go("cons", func(p *Proc) {
		for {
			q.Get(p)
			moved++
		}
	})
	b.ResetTimer()
	for moved < b.N {
		e.RunFor(time.Duration(b.N) * time.Microsecond)
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkEventTrigger measures waking a batch of waiters through an
// Event: 4 waiters re-arm every round, one trigger wakes them all.
func BenchmarkEventTrigger(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	var ev *Event
	rounds := 0
	ev = NewEvent(e)
	gate := NewQueue[*Event](e, 0)
	const waiters = 4
	for i := 0; i < waiters; i++ {
		e.Go("waiter", func(p *Proc) {
			cur := ev
			for {
				p.Wait(cur)
				next, ok := gate.Get(p)
				if !ok {
					return
				}
				cur = next
			}
		})
	}
	e.Go("trigger", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			old := ev
			ev = NewEvent(e)
			old.Trigger(nil)
			rounds++
			for i := 0; i < waiters; i++ {
				gate.Put(p, ev)
			}
		}
	})
	b.ResetTimer()
	for rounds < b.N {
		e.RunFor(time.Duration(b.N) * time.Microsecond)
	}
	b.StopTimer()
	e.Shutdown()
}

// TestSleepSteadyStateDoesNotAllocate enforces the kernel's no-allocation
// invariant: once the event-queue backing array has grown, the
// Sleep -> schedule -> pop -> wake cycle must be allocation-free.
func TestSleepSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEnv(1)
	e.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	e.RunFor(100 * time.Microsecond) // warm up: grow heap, start goroutine
	allocs := testing.AllocsPerRun(50, func() {
		e.RunFor(100 * time.Microsecond)
	})
	e.Shutdown()
	if allocs > 0 {
		t.Fatalf("steady-state Sleep/wake allocated %.1f allocs per 100 events, want 0", allocs)
	}
}
