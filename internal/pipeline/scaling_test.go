package pipeline

import (
	"testing"
	"time"

	"linefs/internal/sim"
)

// TestScaleUpBoundedByEnqueue checks that a burst deep past the paper's
// five-entry trigger still leaves the stage one worker: submissions take no
// virtual time, and the stage starts its items 1 ms apart, never two at once.
func TestScaleUpBoundedByEnqueue(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	var starts []sim.Time
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "slow", Work: func(p *sim.Proc, it item) bool {
			starts = append(starts, p.Now())
			p.Sleep(time.Millisecond)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 13; i++ {
			pl.Submit(p, item{i})
		}
		if p.Now() != start {
			t.Error("submissions advanced virtual time")
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	if len(starts) != 13 {
		t.Fatalf("stage ran %d items, want 13", len(starts))
	}
	for i, at := range starts {
		if at != sim.Time(time.Duration(i)*time.Millisecond) {
			t.Fatalf("item %d started at %v, want %v", i, at, time.Duration(i)*time.Millisecond)
		}
	}
}

// TestScaleDownAfterDrain checks that a drained pipeline schedules no
// events: after a burst, virtual time runs an hour with zero traced events.
func TestScaleDownAfterDrain(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	e.EnableTrace()
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "slow", Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Millisecond)
			return true
		}},
	)
	drained := false
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		drained = true
	})
	e.RunUntil(time.Second)
	if !drained {
		t.Fatal("burst never drained")
	}
	before := e.TracedEvents()
	e.RunUntil(time.Hour)
	if burned := e.TracedEvents() - before; burned != 0 {
		t.Fatalf("drained pipeline burned %d events in an hour", burned)
	}
}

// TestSharedBudgetContention runs two bursting pipelines on one env: each
// keeps one process per stage, and both finish.
func TestSharedBudgetContention(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	peak := 0
	mk := func(name string) *Pipeline[item] {
		return New(e, name, Config{QueueCap: 64},
			Stage[item]{Name: "slow", Work: func(p *sim.Proc, it item) bool {
				peak = max(peak, e.Live())
				p.Sleep(time.Millisecond)
				return true
			}},
		)
	}
	a, b := mk("a"), mk("b")
	drained := false
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			a.Submit(p, item{i})
			b.Submit(p, item{i})
		}
		a.Drain(p)
		b.Drain(p)
		drained = true
	})
	e.RunUntil(10 * time.Second)
	if !drained {
		t.Fatal("the pipelines never drained")
	}
	if peak != 3 {
		t.Fatalf("peak live processes = %d, want 3 (one per pipeline stage + submitter)", peak)
	}
}

// TestInOrderCommitAcrossWorkerCountChange drives a stage with variable
// per-item work through two bursts separated by an idle gap, feeding a
// commit stage, and checks commit order is submission order throughout.
func TestInOrderCommitAcrossWorkerCountChange(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	var order []int
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "work", Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Duration(1+it.id%5) * time.Millisecond)
			return true
		}},
		Stage[item]{Name: "commit", Work: func(p *sim.Proc, it item) bool {
			order = append(order, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 24; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		p.Sleep(10 * time.Millisecond)
		for i := 24; i < 48; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	if len(order) != 48 {
		t.Fatalf("committed %d items, want 48", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("commit order broken at %d: got %d", i, id)
		}
	}
}

// TestIdleBurnsNoEvents checks that an idle pipeline schedules nothing, so
// virtual time can run arbitrarily far with zero traced events.
func TestIdleBurnsNoEvents(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	e.EnableTrace()
	New(e, "p", DefaultConfig(),
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool { return true }},
	)
	e.RunUntil(time.Second)
	before := e.TracedEvents()
	e.RunUntil(time.Hour)
	if burned := e.TracedEvents() - before; burned != 0 {
		t.Fatalf("idle pipeline burned %d events in an hour", burned)
	}
}
