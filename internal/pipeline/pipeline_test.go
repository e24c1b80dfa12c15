package pipeline

import (
	"testing"
	"time"

	"linefs/internal/sim"
)

type item struct {
	id int
}

func TestItemsFlowThroughStages(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	var got []int
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Microsecond)
			return true
		}},
		Stage[item]{Name: "b", Work: func(p *sim.Proc, it item) bool {
			got = append(got, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	if len(got) != 10 {
		t.Fatalf("got %d items", len(got))
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	t.Parallel()
	// Two stages of 1ms each: 10 items pipelined should take ~11ms, not
	// 20ms (sequential).
	e := sim.NewEnv(1)
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool { p.Sleep(time.Millisecond); return true }},
		Stage[item]{Name: "b", Work: func(p *sim.Proc, it item) bool { p.Sleep(time.Millisecond); return true }},
	)
	var done sim.Time
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		done = p.Now()
	})
	e.RunUntil(10 * time.Second)
	if done > sim.Time(12*time.Millisecond) {
		t.Fatalf("pipelined run took %v, want ~11ms", done)
	}
	if done < sim.Time(11*time.Millisecond) {
		t.Fatalf("run took %v, impossibly fast", done)
	}
}

func TestInOrderCommit(t *testing.T) {
	t.Parallel()
	// Stage a's work shrinks with the item id (later items are quicker);
	// stage b must still see submission order.
	e := sim.NewEnv(1)
	var order []int
	pl := New(e, "p", Config{QueueCap: 16},
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Duration(10-it.id) * time.Millisecond)
			return true
		}},
		Stage[item]{Name: "b", Work: func(p *sim.Proc, it item) bool {
			order = append(order, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestDropFiltersItem(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	var got []int
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "filter", Work: func(p *sim.Proc, it item) bool { return it.id%2 == 0 }},
		Stage[item]{Name: "sink", Work: func(p *sim.Proc, it item) bool {
			got = append(got, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	if len(got) != 3 {
		t.Fatalf("got = %v, want 3 even items", got)
	}
}

func TestInOrderDropStillAdvances(t *testing.T) {
	t.Parallel()
	// A dropped item leaves the pipeline; the items behind it go on.
	e := sim.NewEnv(1)
	var got []int
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "v", InOrder: true, Work: func(p *sim.Proc, it item) bool { return it.id != 1 }},
		Stage[item]{Name: "sink", Work: func(p *sim.Proc, it item) bool {
			got = append(got, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	want := []int{0, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

// TestDynamicScaling pins that a stage never runs two items at once,
// however deep its queue: 64 items of 1 ms behind one stage take 64 ms.
func TestDynamicScaling(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	busy, peak := 0, 0
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "slow", Work: func(p *sim.Proc, it item) bool {
			busy++
			peak = max(peak, busy)
			p.Sleep(time.Millisecond)
			busy--
			return true
		}},
	)
	var done sim.Time
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		done = p.Now()
	})
	e.RunUntil(10 * time.Second)
	if peak != 1 {
		t.Fatalf("stage ran %d items at once, want 1", peak)
	}
	if done != sim.Time(64*time.Millisecond) {
		t.Fatalf("64 items took %v, want 64ms", done)
	}
}

// TestThreadBudgetCapsScaling pins that a pipeline runs one process per
// stage, however deep its queues grow.
func TestThreadBudgetCapsScaling(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	peak := 0
	work := func(p *sim.Proc, it item) bool {
		peak = max(peak, e.Live())
		p.Sleep(time.Millisecond)
		return true
	}
	pl := New(e, "p", Config{QueueCap: 64},
		Stage[item]{Name: "a", Work: work},
		Stage[item]{Name: "b", Work: work},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
	})
	e.RunUntil(10 * time.Second)
	if peak != 3 {
		t.Fatalf("peak live processes = %d, want 3 (two stages + submitter)", peak)
	}
}

func TestDrainOnEmptyPipelineReturns(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool { return true }},
	)
	done := false
	e.Go("sub", func(p *sim.Proc) {
		pl.Drain(p)
		done = true
	})
	e.RunUntil(time.Second)
	if !done {
		t.Fatal("Drain on empty pipeline blocked")
	}
}

// TestKillStopsWorkers builds a pipeline from a group's member, as NICFS
// builds a client's: its workers join the group, and killing the group
// mid-item leaves no process behind.
func TestKillStopsWorkers(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	g := e.NewGroup()
	g.Go("owner", func(p *sim.Proc) {
		pl := New(e, "p", DefaultConfig(),
			Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool {
				p.Sleep(time.Hour)
				return true
			}},
		)
		pl.Submit(p, item{1})
		pl.Drain(p)
	})
	e.Go("crash", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		g.Kill()
	})
	e.RunUntil(10 * time.Second)
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after the group's Kill", e.Live())
	}
}
