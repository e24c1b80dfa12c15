// Package pipeline implements the parallel data-path execution pipeline at
// the heart of LineFS (§3.1, §3.3): items flow through a sequence of
// stages, each served by a pool of worker processes. Scaling is
// event-driven: every enqueue checks the target stage's wait-queue depth
// and grows the stage on the spot when it exceeds the threshold (the paper
// grows a stage when its wait queue exceeds five entries), within a thread
// budget that may be shared across pipelines. Surplus workers retire as
// soon as they find their queue empty, so an idle pipeline has exactly its
// minimum workers parked on empty queues and burns zero simulated events.
//
// Stages marked InOrder commit items strictly by submission sequence,
// which is how the pipeline preserves client log order for linearizability
// and prefix crash consistency while still overlapping stages.
package pipeline

import "linefs/internal/sim"

// Stage describes one execution stage.
type Stage[T any] struct {
	Name string
	// Work processes an item; returning false drops it (it is not passed
	// downstream) — used by coalescing and failed validation.
	Work func(p *sim.Proc, item T) bool
	// InOrder forces items through this stage in submission order.
	InOrder bool
	// MinWorkers/MaxWorkers bound the dynamic pool (defaults 1/1).
	MinWorkers int
	MaxWorkers int
}

// Budget caps the total worker count across the pipelines sharing it — the
// paper's thread budget spans every pipeline on the SmartNIC, so a stage
// bursting in one client's pipeline competes with every other client's.
// Minimum workers are always admitted (a pipeline must be able to make
// progress); only dynamic growth is refused at the cap.
type Budget struct {
	// Max is the worker cap; 0 means unlimited.
	Max  int
	used int
}

// NewBudget creates a budget capping max workers (0 = unlimited).
func NewBudget(max int) *Budget { return &Budget{Max: max} }

// Used returns the workers currently drawn from the budget.
func (b *Budget) Used() int {
	if b == nil {
		return 0
	}
	return b.used
}

// tryAcquire admits one dynamic worker if the cap allows.
func (b *Budget) tryAcquire() bool {
	if b == nil {
		return true
	}
	if b.Max > 0 && b.used >= b.Max {
		return false
	}
	b.used++
	return true
}

// force admits one mandatory (minimum) worker regardless of the cap.
func (b *Budget) force() {
	if b != nil {
		b.used++
	}
}

func (b *Budget) release() {
	if b != nil {
		b.used--
	}
}

// scaleThreshold is the wait-queue depth beyond which an enqueue grows the
// stage: the paper's "five entries".
const scaleThreshold = 5

// Config tunes pipeline behaviour.
type Config struct {
	// QueueCap bounds each inter-stage queue (backpressure); 0 = 8.
	QueueCap int
	// Budget, when non-nil, caps total workers across every pipeline that
	// shares it; nil means unlimited.
	Budget *Budget
}

// DefaultConfig bounds each inter-stage queue at 8 entries, with no budget.
func DefaultConfig() Config {
	return Config{QueueCap: 8}
}

type seqItem[T any] struct {
	seq  uint64
	item T
	// dropped marks a tombstone: an item removed by an earlier stage that
	// still flows downstream so in-order stages see no sequence gaps.
	dropped bool
}

type stageState[T any] struct {
	spec    Stage[T]
	in      *sim.Queue[seqItem[T]]
	workers int
	// nextSeq is the sequence an InOrder stage must process next.
	nextSeq uint64
	// reorder holds items that arrived ahead of nextSeq (InOrder).
	reorder map[uint64]seqItem[T]
}

// Pipeline runs items through its stages on dedicated worker processes.
type Pipeline[T any] struct {
	env    *sim.Env
	name   string
	budget *Budget
	stages []*stageState[T]

	submitSeq uint64
	inflight  int
	idle      *sim.Event

	procs  []*sim.Proc
	closed bool

	// Scaled counts dynamic worker additions (diagnostics / tests).
	Scaled int
}

// New builds and starts a pipeline.
func New[T any](env *sim.Env, name string, cfg Config, stages ...Stage[T]) *Pipeline[T] {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 8
	}
	pl := &Pipeline[T]{env: env, name: name, budget: cfg.Budget, idle: sim.NewEvent(env)}
	pl.idle.Trigger(nil)
	for _, s := range stages {
		if s.MinWorkers == 0 {
			s.MinWorkers = 1
		}
		if s.MaxWorkers < s.MinWorkers {
			s.MaxWorkers = s.MinWorkers
		}
		if s.InOrder {
			// Ordered commit is meaningless with parallel commit workers;
			// parallel pre-processing happens upstream.
			s.MaxWorkers = 1
			s.MinWorkers = 1
		}
		st := &stageState[T]{
			spec:    s,
			in:      sim.NewQueue[seqItem[T]](env, cfg.QueueCap),
			reorder: make(map[uint64]seqItem[T]),
		}
		pl.stages = append(pl.stages, st)
	}
	for si, st := range pl.stages {
		for w := 0; w < st.spec.MinWorkers; w++ {
			pl.budget.force()
			pl.addWorker(si)
		}
	}
	return pl
}

func (pl *Pipeline[T]) addWorker(si int) {
	st := pl.stages[si]
	st.workers++
	proc := pl.env.Go(pl.name+"/"+st.spec.Name, func(p *sim.Proc) {
		pl.runWorker(p, si)
	})
	pl.procs = append(pl.procs, proc)
}

func (pl *Pipeline[T]) runWorker(p *sim.Proc, si int) {
	st := pl.stages[si]
	for {
		// Scale-down: a surplus worker retires the moment it would block on
		// an empty queue, returning its thread to the budget. The minimum
		// workers stay parked on Get, burning no events while idle.
		if st.in.Len() == 0 && st.workers > st.spec.MinWorkers {
			st.workers--
			pl.budget.release()
			return
		}
		it, ok := st.in.Get(p)
		if !ok {
			st.workers--
			pl.budget.release()
			return
		}
		if st.spec.InOrder {
			// Buffer arrivals and process strictly by sequence: a parallel
			// upstream stage may complete items out of order.
			st.reorder[it.seq] = it
			for {
				next, ok := st.reorder[st.nextSeq]
				if !ok {
					break
				}
				delete(st.reorder, st.nextSeq)
				st.nextSeq++
				pl.process(p, st, si, next)
			}
			continue
		}
		pl.process(p, st, si, it)
	}
}

func (pl *Pipeline[T]) process(p *sim.Proc, st *stageState[T], si int, it seqItem[T]) {
	if !it.dropped && !st.spec.Work(p, it.item) {
		it.dropped = true
	}
	pl.forward(p, si, it)
}

// enqueue puts an item on stage si's wait queue, growing the stage first
// when the depth (including this item) crosses the scale threshold — the
// event-driven replacement for the sleep-polling monitor: scale-up latency
// is bounded by the enqueue itself, not by a sampling interval.
func (pl *Pipeline[T]) enqueue(p *sim.Proc, si int, it seqItem[T]) {
	st := pl.stages[si]
	if st.in.Len()+1 > scaleThreshold && st.workers < st.spec.MaxWorkers && pl.budget.tryAcquire() {
		pl.addWorker(si)
		pl.Scaled++
	}
	st.in.Put(p, it)
}

func (pl *Pipeline[T]) forward(p *sim.Proc, si int, it seqItem[T]) {
	if si+1 < len(pl.stages) {
		pl.enqueue(p, si+1, it)
		return
	}
	pl.inflight--
	if pl.inflight == 0 {
		pl.idle.Trigger(nil)
	}
}

// Submit inserts an item at the head of the pipeline, blocking under
// backpressure.
func (pl *Pipeline[T]) Submit(p *sim.Proc, item T) {
	if pl.closed {
		return
	}
	if pl.inflight == 0 {
		pl.idle = sim.NewEvent(pl.env)
	}
	pl.inflight++
	pl.enqueue(p, 0, seqItem[T]{seq: pl.submitSeq, item: item})
	pl.submitSeq++
}

// Drain blocks until every submitted item has left the pipeline.
func (pl *Pipeline[T]) Drain(p *sim.Proc) {
	for pl.inflight > 0 {
		p.Wait(pl.idle)
	}
}

// Workers returns the worker count of stage si.
func (pl *Pipeline[T]) Workers(si int) int { return pl.stages[si].workers }

// Close stops all workers once queues drain.
func (pl *Pipeline[T]) Close() {
	if pl.closed {
		return
	}
	pl.closed = true
	for _, st := range pl.stages {
		st.in.Close()
	}
}

// Kill forcibly terminates all pipeline processes (node crash).
func (pl *Pipeline[T]) Kill() {
	pl.Close()
	for _, p := range pl.procs {
		p.Kill()
	}
}
