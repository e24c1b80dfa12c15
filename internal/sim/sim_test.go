package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	var done Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		done = p.Now()
	})
	e.Run()
	if done != Time(5*time.Millisecond) {
		t.Fatalf("clock = %v, want 5ms", done)
	}
}

func TestSequentialSleeps(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	var order []int
	e.Go("a", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		order = append(order, 1)
		p.Sleep(3 * time.Microsecond)
		order = append(order, 3)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(4 * time.Microsecond)
		order = append(order, 2)
	})
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroSleepIsNoop(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	ran := false
	e.Go("z", func(p *Proc) {
		p.Sleep(0)
		ran = true
	})
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, e.Now())
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	ev := NewEvent(e)
	woke := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			v := p.Wait(ev)
			if v.(int) != 42 {
				t.Errorf("event value = %v, want 42", v)
			}
			woke++
		})
	}
	e.Go("t", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Trigger(42)
	})
	e.Run()
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestWaitOnTriggeredEventReturnsImmediately(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	ev := NewEvent(e)
	ev.Trigger("x")
	var at Time = -1
	e.Go("w", func(p *Proc) {
		p.Sleep(time.Microsecond)
		if v := p.Wait(ev); v != "x" {
			t.Errorf("value = %v", v)
		}
		at = p.Now()
	})
	e.Run()
	if at != Time(time.Microsecond) {
		t.Fatalf("wait blocked on triggered event; at=%v", at)
	}
}

func TestDoubleTriggerIsNoop(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	ev := NewEvent(e)
	ev.Trigger(1)
	ev.Trigger(2)
	if ev.Value().(int) != 1 {
		t.Fatalf("value = %v, want first trigger's 1", ev.Value())
	}
}

func TestWaitTimeout(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	ev := NewEvent(e)
	var ok1, ok2 bool
	e.Go("to", func(p *Proc) {
		_, ok1 = p.WaitTimeout(ev, time.Millisecond)
	})
	e.Go("hit", func(p *Proc) {
		_, ok2 = p.WaitTimeout(ev, 10*time.Millisecond)
	})
	e.Go("t", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ev.Trigger(nil)
	})
	e.Run()
	if ok1 {
		t.Error("first wait should have timed out")
	}
	if !ok2 {
		t.Error("second wait should have seen the trigger")
	}
}

// TestWaitAny pins that a trigger wakes its own event's waiters and no
// other: with one waiter on each of two events, triggering b hands b's value
// to b's waiter and leaves a's blocked.
func TestWaitAny(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	a, b := NewEvent(e), NewEvent(e)
	var gotA, gotB any
	e.Go("wa", func(p *Proc) { gotA = p.Wait(a) })
	e.Go("wb", func(p *Proc) { gotB = p.Wait(b) })
	e.Go("t", func(p *Proc) {
		p.Sleep(time.Millisecond)
		b.Trigger("b")
	})
	e.Run()
	if gotB != "b" || gotA != nil {
		t.Fatalf("waiters got a=%v b=%v, want a=<nil> b=b", gotA, gotB)
	}
	if e.Live() != 1 {
		t.Fatalf("live = %d, want 1 (a's waiter still blocked)", e.Live())
	}
	e.Shutdown()
}

func TestResourceMutualExclusion(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 1)
	var maxConc, conc int
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p, 0)
			conc++
			if conc > maxConc {
				maxConc = conc
			}
			p.Sleep(time.Millisecond)
			conc--
			r.Release()
		})
	}
	e.Run()
	if maxConc != 1 {
		t.Fatalf("max concurrency = %d, want 1", maxConc)
	}
	if e.Now() != Time(4*time.Millisecond) {
		t.Fatalf("serialized time = %v, want 4ms", e.Now())
	}
}

func TestResourcePriority(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 1)
	var order []string
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Sleep(time.Millisecond)
		r.Release()
	})
	e.Go("low", func(p *Proc) {
		p.Sleep(time.Microsecond)
		r.Acquire(p, 0)
		order = append(order, "low")
		r.Release()
	})
	e.Go("high", func(p *Proc) {
		p.Sleep(2 * time.Microsecond) // queues after low…
		r.Acquire(p, 5)               // …but with higher priority
		order = append(order, "high")
		r.Release()
	})
	e.Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("order = %v, want [high low]", order)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 2)
	for i := 0; i < 4; i++ {
		e.Go("u", func(p *Proc) {
			r.Acquire(p, 0)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	e.Run()
	if e.Now() != Time(2*time.Millisecond) {
		t.Fatalf("time = %v, want 2ms (two waves of two)", e.Now())
	}
}

func TestTryAcquire(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 1)
	e.Go("u", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire succeeded at full capacity")
		}
		r.Release()
		if !r.TryAcquire() {
			t.Error("TryAcquire after release failed")
		}
		r.Release()
	})
	e.Run()
}

func TestKillWaiterSkippedOnGrant(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 1)
	got := ""
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Sleep(time.Millisecond)
		r.Release()
	})
	var victim *Proc
	victim = e.Go("victim", func(p *Proc) {
		p.Sleep(time.Microsecond)
		r.Acquire(p, 0)
		got = "victim"
		r.Release()
	})
	e.Go("survivor", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		r.Acquire(p, 0)
		got = "survivor"
		r.Release()
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(500 * time.Microsecond)
		victim.Kill()
	})
	e.Run()
	if got != "survivor" {
		t.Fatalf("got = %q, want survivor (victim was killed while queued)", got)
	}
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: inUse = %d", r.InUse())
	}
}

func TestKillHolderWithDeferredRelease(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 1)
	acquiredAt := Time(-1)
	var holder *Proc
	holder = e.Go("holder", func(p *Proc) {
		r.Acquire(p, 0)
		defer r.Release()
		p.Sleep(10 * time.Millisecond)
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 0)
		acquiredAt = p.Now()
		r.Release()
	})
	e.Go("killer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		holder.Kill()
	})
	e.Run()
	if acquiredAt != Time(2*time.Millisecond) {
		t.Fatalf("waiter acquired at %v, want 2ms (kill releases via defer)", acquiredAt)
	}
}

func TestQueuePutGetFIFO(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	q := NewQueue[int](e, 0)
	var got []int
	e.Go("prod", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			q.Put(p, i)
			p.Sleep(time.Microsecond)
		}
	})
	e.Go("cons", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("unexpected queue close")
			}
			got = append(got, v)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want 1..5 in order", got)
		}
	}
}

func TestQueueBoundedBlocksPutter(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	q := NewQueue[int](e, 2)
	var putDone Time
	e.Go("prod", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until consumer takes one
		putDone = p.Now()
	})
	e.Go("cons", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Get(p)
	})
	e.Run()
	if putDone != Time(time.Millisecond) {
		t.Fatalf("third put completed at %v, want 1ms", putDone)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	q := NewQueue[string](e, 0)
	var got string
	var at Time
	e.Go("cons", func(p *Proc) {
		got, _ = q.Get(p)
		at = p.Now()
	})
	e.Go("prod", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		q.Put(p, "hello")
	})
	e.Run()
	if got != "hello" || at != Time(3*time.Millisecond) {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestQueueClose(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	q := NewQueue[int](e, 0)
	var results []bool
	e.Go("cons", func(p *Proc) {
		for {
			_, ok := q.Get(p)
			results = append(results, ok)
			if !ok {
				return
			}
		}
	})
	e.Go("prod", func(p *Proc) {
		q.Put(p, 1)
		p.Sleep(time.Millisecond)
		q.Close()
		if q.Put(p, 2) {
			t.Error("put on closed queue succeeded")
		}
	})
	e.Run()
	if len(results) != 2 || !results[0] || results[1] {
		t.Fatalf("results = %v, want [true false]", results)
	}
}

func TestQueueTryOps(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	q := NewQueue[int](e, 1)
	e.Go("u", func(p *Proc) {
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty queue succeeded")
		}
		q.Put(p, 7)
		if v, ok := q.TryGet(); !ok || v != 7 {
			t.Errorf("TryGet = %v,%v", v, ok)
		}
	})
	e.Run()
}

// TestInterruptCutsSleepShort pins that a kill cuts a sleep short: the
// sleeper unwinds at the kill, runs its deferred code there, and never
// reaches the code after the sleep.
func TestInterruptCutsSleepShort(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	var unwound Time = -1
	after := false
	sleeper := e.Go("s", func(p *Proc) {
		defer func() { unwound = p.Now() }()
		p.Sleep(10 * time.Millisecond)
		after = true
	})
	e.Go("k", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sleeper.Kill()
	})
	e.Run()
	if after {
		t.Error("killed sleeper ran past its sleep")
	}
	if unwound != Time(time.Millisecond) {
		t.Fatalf("unwound at %v, want 1ms", unwound)
	}
	if !sleeper.Done.Triggered() {
		t.Fatal("Done never triggered for the killed sleeper")
	}
}

// TestInterruptDoesNotWakeResourceWait pins that a stale wake-up does not
// disturb a resource wait: the waiter's WaitTimeout is met by its event, so
// its timer is still queued when it goes on to wait for the held resource,
// and that timer must not wake it before the holder releases.
func TestInterruptDoesNotWakeResourceWait(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	r := NewResource(e, 1)
	ev := NewEvent(e)
	var acquiredAt Time
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 0)
		p.Sleep(5 * time.Millisecond)
		r.Release()
	})
	e.Go("waiter", func(p *Proc) {
		if _, ok := p.WaitTimeout(ev, time.Millisecond); !ok {
			t.Error("WaitTimeout timed out before its event")
		}
		r.Acquire(p, 0) // the 1ms timer is stale from here on
		acquiredAt = p.Now()
		r.Release()
	})
	e.Go("t", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ev.Trigger(nil)
	})
	e.Run()
	if acquiredAt != Time(5*time.Millisecond) {
		t.Fatalf("acquired at %v, want 5ms", acquiredAt)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	ticks := 0
	e.Go("t", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	e.RunUntil(5500 * time.Microsecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != Time(5500*time.Microsecond) {
		t.Fatalf("now = %v", e.Now())
	}
	e.RunFor(2 * time.Millisecond)
	if ticks != 7 {
		t.Fatalf("after RunFor ticks = %d, want 7", ticks)
	}
}

func TestProcDoneEvent(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	p1 := e.Go("worker", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
	})
	var joined Time
	e.Go("joiner", func(p *Proc) {
		p.Wait(p1.Done)
		joined = p.Now()
	})
	e.Run()
	if joined != Time(2*time.Millisecond) {
		t.Fatalf("joined at %v, want 2ms", joined)
	}
}

func TestKillTriggersDone(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	victim := e.Go("v", func(p *Proc) {
		p.Sleep(time.Hour)
	})
	var joined bool
	e.Go("k", func(p *Proc) {
		p.Sleep(time.Millisecond)
		victim.Kill()
		p.Wait(victim.Done)
		joined = true
	})
	e.Run()
	if !joined {
		t.Fatal("Done never triggered for killed process")
	}
	if e.Live() != 0 {
		t.Fatalf("live = %d, want 0", e.Live())
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() []Time {
		e := NewEnv(7)
		var log []Time
		q := NewQueue[int](e, 4)
		for i := 0; i < 3; i++ {
			e.Go("prod", func(p *Proc) {
				for j := 0; j < 20; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					q.Put(p, j)
				}
			})
		}
		e.Go("cons", func(p *Proc) {
			for i := 0; i < 60; i++ {
				q.Get(p)
				log = append(log, p.Now())
			}
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 60 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestYieldOrdering pins FIFO wake order at one timestamp: sleepers due at
// the same instant wake in the order they slept, and a process spawned at
// that instant starts after the wake-ups already queued for it.
func TestYieldOrdering(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(time.Microsecond)
		order = append(order, "a")
		e.Go("c", func(p *Proc) { order = append(order, "c") })
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Microsecond)
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

// TestQueueManyBlockedPutters is a seeded property test of a bounded queue
// under contention: three producers against two consumers that mix Get and
// TryGet, at capacities 1–4, with one producer killed while blocked in Put
// and a Close once the producers are done. Each consumer sees each
// producer's values in order; every accepted value is delivered exactly
// once; the killed producer's pending value at most once; and nothing comes
// out after the drain.
func TestQueueManyBlockedPutters(t *testing.T) {
	t.Parallel()
	const producers, perProducer = 3, 40
	for seed := int64(1); seed <= 40; seed++ {
		capacity := 1 + int(seed%4)
		e := NewEnv(seed)
		rng := e.Rand()
		q := NewQueue[int](e, capacity)
		accepted := make(map[int]bool)
		pending := make([]int, producers) // value inside Put, or -1
		delivered := make(map[int]int)
		var procs []*Proc
		for i := 0; i < producers; i++ {
			pending[i] = -1
			procs = append(procs, e.Go("prod", func(p *Proc) {
				for k := 0; k < perProducer; k++ {
					v := i*perProducer + k
					pending[i] = v
					if q.Put(p, v) {
						accepted[v] = true
					}
					pending[i] = -1
					p.Sleep(time.Duration(rng.Intn(2)) * time.Microsecond)
				}
			}))
		}
		victim := procs[producers-1]
		killed := false
		e.Go("killer", func(p *Proc) {
			// A producer is seen inside Put only while blocked there: an
			// unblocked Put returns without yielding.
			for pending[producers-1] < 0 && !victim.terminated {
				p.Sleep(time.Microsecond)
			}
			if !victim.terminated {
				victim.Kill()
				killed = true
			}
		})
		e.Go("closer", func(p *Proc) {
			for _, pr := range procs {
				p.Wait(pr.Done)
			}
			q.Close()
			if q.Put(p, -1) {
				t.Errorf("seed %d: put on a closed queue succeeded", seed)
			}
		})
		for c := 0; c < 2; c++ {
			e.Go("cons", func(p *Proc) {
				last := []int{-1, -1, -1}
				take := func(v int) {
					delivered[v]++
					if pr := v / perProducer; v%perProducer <= last[pr] {
						t.Errorf("seed %d: producer %d's %d after %d", seed, pr, v%perProducer, last[pr])
					} else {
						last[pr] = v % perProducer
					}
				}
				for {
					p.Sleep(time.Duration(rng.Intn(4)) * time.Microsecond)
					if rng.Intn(2) == 0 {
						if v, ok := q.TryGet(); ok {
							take(v)
						}
						continue
					}
					v, ok := q.Get(p)
					if !ok {
						break
					}
					take(v)
				}
				if _, ok := q.Get(p); ok {
					t.Errorf("seed %d: Get delivered after the drain", seed)
				}
				if _, ok := q.TryGet(); ok {
					t.Errorf("seed %d: TryGet delivered after the drain", seed)
				}
			})
		}
		e.Run()
		if !killed {
			t.Fatalf("seed %d: the victim was never blocked in Put", seed)
		}
		for v := range accepted {
			if delivered[v] != 1 {
				t.Errorf("seed %d: accepted value %d delivered %d times", seed, v, delivered[v])
			}
		}
		for v, n := range delivered {
			if !accepted[v] && (v != pending[producers-1] || n != 1) {
				t.Errorf("seed %d: value %d delivered %d times, accepted %v", seed, v, n, accepted[v])
			}
		}
		if q.Len() != 0 || e.Live() != 0 {
			t.Errorf("seed %d: %d buffered, %d live after the run", seed, q.Len(), e.Live())
		}
	}
}
