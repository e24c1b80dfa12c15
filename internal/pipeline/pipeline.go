// Package pipeline implements the parallel data-path execution pipeline at
// the heart of LineFS (§3.1, §3.3): items flow through a chain of stages,
// each served by one worker process behind a FIFO queue. Stages overlap,
// and every stage sees items in submission order, which is how the pipeline
// preserves client log order for linearizability and prefix crash
// consistency. An idle pipeline has its workers parked on empty queues and
// burns zero simulated events.
//
// The paper also grows a stage's thread pool when its wait queue passes five
// entries. That trigger is not modeled (EXPERIMENTS.md "Known modeling
// deviations"): measured on every harness it fired 5 times in 369 705
// enqueues, and no printed number depended on it.
package pipeline

import "linefs/internal/sim"

// Stage describes one execution stage.
type Stage[T any] struct {
	Name string
	// Work processes an item; returning false drops it: the item leaves the
	// pipeline without visiting later stages (used by the stages that hand
	// it on themselves, and by failed validation).
	Work func(p *sim.Proc, item T) bool
	// InOrder states that the stage must see items in submission order.
	// Every stage does, by construction (one worker behind a FIFO queue), so
	// the flag documents a caller's requirement and changes nothing.
	InOrder bool
}

// Config tunes pipeline behaviour.
type Config struct {
	// QueueCap bounds each inter-stage queue (backpressure); 0, as in
	// sim.Queue, is unbounded.
	QueueCap int
}

// DefaultConfig bounds each inter-stage queue at 8 entries.
func DefaultConfig() Config {
	return Config{QueueCap: 8}
}

// Pipeline runs items through its stages, one worker process per stage.
type Pipeline[T any] struct {
	env    *sim.Env
	stages []Stage[T]
	in     []*sim.Queue[T] // in[si] is stage si's wait queue

	inflight int
	idle     *sim.Event
}

// New builds and starts a pipeline. Its workers belong to the caller's
// process group (sim.Group), and die with it.
func New[T any](env *sim.Env, name string, cfg Config, stages ...Stage[T]) *Pipeline[T] {
	pl := &Pipeline[T]{env: env, stages: stages, idle: sim.NewEvent(env)}
	pl.idle.Trigger(nil)
	for si, s := range stages {
		pl.in = append(pl.in, sim.NewQueue[T](env, cfg.QueueCap))
		env.Go(name+"/"+s.Name, func(p *sim.Proc) {
			pl.runWorker(p, si)
		})
	}
	return pl
}

// runWorker serves stage si until it is killed: each item goes on to the
// next stage, or leaves the pipeline after the last stage or a drop.
func (pl *Pipeline[T]) runWorker(p *sim.Proc, si int) {
	for {
		it, _ := pl.in[si].Get(p)
		if pl.stages[si].Work(p, it) && si+1 < len(pl.stages) {
			pl.in[si+1].Put(p, it)
			continue
		}
		pl.inflight--
		if pl.inflight == 0 {
			pl.idle.Trigger(nil)
		}
	}
}

// Submit inserts an item at the head of the pipeline, blocking under
// backpressure.
func (pl *Pipeline[T]) Submit(p *sim.Proc, item T) {
	if pl.inflight == 0 {
		pl.idle = sim.NewEvent(pl.env)
	}
	pl.inflight++
	pl.in[0].Put(p, item)
}

// Drain blocks until every submitted item has left the pipeline.
func (pl *Pipeline[T]) Drain(p *sim.Proc) {
	for pl.inflight > 0 {
		p.Wait(pl.idle)
	}
}
