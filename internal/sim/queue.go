package sim

// Queue is a bounded FIFO connecting processes, analogous to a Go channel
// in virtual time. A capacity of 0 means unbounded; a negative one is not
// supported. Closed queues reject puts and let getters drain remaining
// items, after which Get reports !ok.
//
// Fast paths: Put with buffer space (or a waiting getter) and Get with a
// buffered item complete inline without blocking, and the wake-ups they
// schedule are typed records. Get never takes a value from a blocked putter
// directly: a putter blocks only on a full buffer, and every pop refills the
// buffer from a live waiting putter (admitPutter), so an empty buffer has no
// live putter behind it. Wait records are recycled through a per-queue free
// list, so steady-state producer/consumer traffic does not allocate.
type Queue[T any] struct {
	env    *Env
	limit  int
	items  []T
	head   int // index of the oldest buffered item within items
	closed bool

	getters []*qwaiter[T]
	putters []*qwaiter[T]
	free    []*qwaiter[T]
}

type qwaiter[T any] struct {
	p       *Proc
	gen     uint64
	val     T
	handed  bool // getter: value delivered; putter: value accepted
	aborted bool // queue closed while waiting
}

// NewQueue creates a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: e, limit: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// newWaiter returns a zeroed wait record, reusing a recycled one if
// available.
func (q *Queue[T]) newWaiter() *qwaiter[T] {
	if n := len(q.free); n > 0 {
		w := q.free[n-1]
		q.free = q.free[:n-1]
		return w
	}
	return new(qwaiter[T])
}

// recycle returns a record whose wait completed (handed or aborted) to the
// free list. Records abandoned by kill-unwinding are never recycled — their
// frames do not resume — so a recycled record is never still referenced.
func (q *Queue[T]) recycle(w *qwaiter[T]) {
	*w = qwaiter[T]{}
	q.free = append(q.free, w)
}

// pushItem appends v to the buffer, compacting the consumed prefix when it
// dominates the slice.
func (q *Queue[T]) pushItem(v T) {
	if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:]) // drop moved-from references for GC
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// popItem removes and returns the oldest buffered item.
func (q *Queue[T]) popItem() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the reference for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

func (q *Queue[T]) popLiveGetter() *qwaiter[T] {
	for len(q.getters) > 0 {
		w := q.getters[0]
		q.getters = q.getters[1:]
		if dead(w.p) {
			continue
		}
		return w
	}
	return nil
}

func (q *Queue[T]) popLivePutter() *qwaiter[T] {
	for len(q.putters) > 0 {
		w := q.putters[0]
		q.putters = q.putters[1:]
		if dead(w.p) {
			continue
		}
		return w
	}
	return nil
}

// Put appends v, blocking while the queue is full. Put on a closed queue
// reports false; otherwise true once the value is accepted.
func (q *Queue[T]) Put(p *Proc, v T) bool {
	if q.closed {
		return false
	}
	if g := q.popLiveGetter(); g != nil {
		g.val = v
		g.handed = true
		q.env.wakeAt(q.env.now, g.p, g.gen)
		return true
	}
	if q.limit == 0 || q.Len() < q.limit {
		q.pushItem(v)
		return true
	}
	w := q.newWaiter()
	w.p, w.gen, w.val = p, p.arm(), v
	q.putters = append(q.putters, w)
	p.block()
	ok := w.handed && !w.aborted
	q.recycle(w)
	return ok
}

// Get removes and returns the oldest item, blocking while the queue is
// empty. ok is false if the queue closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for {
		if q.Len() > 0 {
			v = q.popItem()
			q.admitPutter()
			return v, true
		}
		if q.closed {
			var zero T
			return zero, false
		}
		w := q.newWaiter()
		w.p, w.gen = p, p.arm()
		q.getters = append(q.getters, w)
		p.block()
		if w.handed {
			v = w.val
			q.recycle(w)
			return v, true
		}
		if w.aborted {
			q.recycle(w)
			var zero T
			return zero, false
		}
		// Spurious wake (e.g. racing close+put); loop and re-check. The
		// record may still be queued, so it is not recycled.
	}
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.Len() > 0 {
		v = q.popItem()
		q.admitPutter()
		return v, true
	}
	var zero T
	return zero, false
}

// admitPutter moves one blocked putter's value into freed buffer space.
func (q *Queue[T]) admitPutter() {
	if q.limit == 0 || q.Len() >= q.limit {
		return
	}
	if pu := q.popLivePutter(); pu != nil {
		q.pushItem(pu.val)
		pu.handed = true
		q.env.wakeAt(q.env.now, pu.p, pu.gen)
	}
}

// Close marks the queue closed: pending and future puts fail, getters drain
// buffered items and then observe !ok.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.getters {
		if dead(w.p) {
			continue
		}
		w.aborted = true
		q.env.wakeAt(q.env.now, w.p, w.gen)
	}
	q.getters = nil
	for _, w := range q.putters {
		if dead(w.p) {
			continue
		}
		w.aborted = true
		q.env.wakeAt(q.env.now, w.p, w.gen)
	}
	q.putters = nil
}
