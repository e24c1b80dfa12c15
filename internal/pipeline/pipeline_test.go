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
		pl.Close()
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
		pl.Close()
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
	// Stage a is parallel with variable latency (later items finish
	// first); stage b is in-order and must still see submission order.
	e := sim.NewEnv(1)
	var order []int
	pl := New(e, "p", Config{QueueCap: 16, ScaleThreshold: 100},
		Stage[item]{Name: "a", MinWorkers: 4, MaxWorkers: 4, Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Duration(10-it.id) * time.Millisecond)
			return true
		}},
		Stage[item]{Name: "b", InOrder: true, Work: func(p *sim.Proc, it item) bool {
			order = append(order, it.id)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		pl.Close()
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
		pl.Close()
	})
	e.RunUntil(10 * time.Second)
	if len(got) != 3 {
		t.Fatalf("got = %v, want 3 even items", got)
	}
}

func TestInOrderDropStillAdvances(t *testing.T) {
	t.Parallel()
	// A dropped item in an in-order stage must not stall later items.
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
		pl.Close()
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

func TestDynamicScaling(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	cfg := Config{QueueCap: 64, ScaleThreshold: 5}
	var pl *Pipeline[item]
	peak := 0
	pl = New(e, "p", cfg,
		Stage[item]{Name: "slow", MinWorkers: 1, MaxWorkers: 8, Work: func(p *sim.Proc, it item) bool {
			if w := pl.Workers(0); w > peak {
				peak = w
			}
			p.Sleep(time.Millisecond)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		pl.Close()
	})
	e.RunUntil(10 * time.Second)
	if peak <= 1 {
		t.Fatal("bottleneck stage never scaled")
	}
	if pl.Scaled == 0 {
		t.Fatal("no scaling events recorded")
	}
}

func TestThreadBudgetCapsScaling(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	cfg := Config{QueueCap: 64, ScaleThreshold: 2, Budget: NewBudget(2)}
	var pl *Pipeline[item]
	peak := 0
	pl = New(e, "p", cfg,
		Stage[item]{Name: "slow", MinWorkers: 1, MaxWorkers: 8, Work: func(p *sim.Proc, it item) bool {
			if w := pl.Workers(0); w > peak {
				peak = w
			}
			p.Sleep(time.Millisecond)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			pl.Submit(p, item{i})
		}
		pl.Drain(p)
		pl.Close()
	})
	e.RunUntil(10 * time.Second)
	if peak > 2 {
		t.Fatalf("peak workers = %d exceeds budget", peak)
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

func TestKillStopsWorkers(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pl := New(e, "p", DefaultConfig(),
		Stage[item]{Name: "a", Work: func(p *sim.Proc, it item) bool {
			p.Sleep(time.Hour)
			return true
		}},
	)
	e.Go("sub", func(p *sim.Proc) {
		pl.Submit(p, item{1})
		p.Sleep(time.Millisecond)
		pl.Kill()
	})
	e.RunUntil(10 * time.Second)
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after Kill", e.Live())
	}
}
