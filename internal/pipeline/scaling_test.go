package pipeline

import (
	"testing"
	"time"

	"linefs/internal/sim"
)

// TestScaleUpBoundedByEnqueue checks that scaling is event-driven: the
// moment a burst pushes a stage's wait queue past the threshold, the extra
// worker exists — before any simulated time passes, with no sampling
// interval in between.
func TestScaleUpBoundedByEnqueue(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "slow", MinWorkers: 1, MaxWorkers: 4, Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Millisecond)
			return true
		}},
	)
	var atSubmit int
	e.Go("sub", func(p *sim.Proc) {
		start := p.Now()
		// The first item goes straight to the parked worker; the next twelve
		// take the queue to 12, past the five-entry threshold.
		for i := 0; i < 13; i++ {
			pl.Submit(p, item{i})
		}
		if p.Now() != start {
			t.Error("submissions advanced virtual time")
		}
		atSubmit = pl.Workers(0)
		pl.Drain(p)
		pl.Close()
	})
	e.RunUntil(10 * time.Second)
	if atSubmit <= 1 {
		t.Fatalf("workers = %d immediately after burst, want scale-up at enqueue", atSubmit)
	}
	if pl.Scaled == 0 {
		t.Fatal("no scaling events recorded")
	}
}

// TestScaleDownAfterDrain checks that surplus workers retire once the
// burst drains, returning the stage to its minimum pool.
func TestScaleDownAfterDrain(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "slow", MinWorkers: 1, MaxWorkers: 8, Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Millisecond)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		// Drain returns when the last item leaves the pipeline; surplus
		// workers observe the empty queue and retire at the same instant.
		if w := pl.Workers(0); w != 1 {
			t.Errorf("workers = %d after drain, want min pool of 1", w)
		}
		pl.Close()
	})
	e.RunUntil(10 * time.Second)
	if pl.Scaled == 0 {
		t.Fatal("burst never scaled the stage up")
	}
}

// TestSharedBudgetContention runs two bursting pipelines against one shared
// budget: their combined worker count must never exceed the cap, and both
// must still finish (minimum workers are admitted outside the budget race).
func TestSharedBudgetContention(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	budget := NewBudget(3)
	mk := func(name string) *Pipeline[item] {
		return New(e, name, Config{QueueCap: 64, Budget: budget},
			Stage[item]{Name: "slow", MinWorkers: 1, MaxWorkers: 8, Work: func(p *sim.Proc, it item) bool {
				if u := budget.Used(); u > 3 {
					t.Errorf("budget used = %d, cap 3", u)
				}
				p.Sleep(time.Millisecond)
				return true
			}},
		)
	}
	a, b := mk("a"), mk("b")
	done := 0
	for _, pl := range []*Pipeline[item]{a, b} {
		pl := pl
		e.Go("sub", func(p *sim.Proc) {
			for i := 0; i < 32; i++ {
				pl.Submit(p, item{i})
			}
			pl.Drain(p)
			pl.Close()
			done++
		})
	}
	e.RunUntil(10 * time.Second)
	if done != 2 {
		t.Fatalf("%d pipelines finished, want 2", done)
	}
	// Both pipelines were eligible to grow; the shared budget admits at
	// most one extra worker beyond the two minimums.
	if a.Workers(0)+b.Workers(0) > 3 {
		t.Fatalf("final workers %d+%d exceed shared budget", a.Workers(0), b.Workers(0))
	}
}

// TestInOrderCommitAcrossWorkerCountChange drives a parallel stage through
// scale-up and scale-down (two bursts separated by an idle gap) feeding an
// in-order commit stage, and checks commit order is submission order
// throughout.
func TestInOrderCommitAcrossWorkerCountChange(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	var order []int
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "work", MinWorkers: 1, MaxWorkers: 6, Work: func(p *sim.Proc, it item) bool {
			// Variable latency so parallel workers complete out of order.
			p.Sleep(time.Duration(1+it.id%5) * time.Millisecond)
			return true
		}},
		Stage[item]{Name: "commit", InOrder: true, Work: func(p *sim.Proc, it item) bool {
			order = append(order, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 24; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p) // workers retire here
		if w := pl.Workers(0); w != 1 {
			t.Errorf("workers = %d between bursts, want 1", w)
		}
		p.Sleep(10 * time.Millisecond)
		for i := 24; i < 48; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		pl.Close()
	})
	e.RunUntil(10 * time.Second)
	if pl.Scaled == 0 {
		t.Fatal("stage never scaled")
	}
	if len(order) != 48 {
		t.Fatalf("committed %d items, want 48", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("commit order broken at %d: got %d", i, id)
		}
	}
}

// TestIdleBurnsNoEvents checks the scaling rework removed the polling
// monitor: an idle pipeline schedules nothing, so virtual time can run
// arbitrarily far with zero traced events.
func TestIdleBurnsNoEvents(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	e.EnableTrace()
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool { return true }},
	)
	e.RunUntil(time.Second)
	before := e.TracedEvents()
	e.RunUntil(time.Hour)
	if burned := e.TracedEvents() - before; burned != 0 {
		t.Fatalf("idle pipeline burned %d events in an hour", burned)
	}
	pl.Close()
}
