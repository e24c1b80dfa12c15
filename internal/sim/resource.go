package sim

// Resource models contended capacity (CPU cores, DMA channels, link slots).
// Waiters are served highest-priority first, FIFO within a priority level.
//
// Kill-safety: a process killed while waiting is skipped when capacity
// frees; a process killed at the instant it is granted releases the grant
// as it unwinds (block() returns the unit, see Proc.block). Holders killed
// after Acquire returns must arrange release themselves (typically
// `defer r.Release()`), which runs during unwinding.
type Resource struct {
	env   *Env
	cap   int
	inUse int
	q     rwaiterHeap
	seq   uint64
}

// rwaiter is a resource-wait record. One is embedded in every Proc (a
// process queues on at most one Resource at a time), so contended Acquire
// allocates nothing.
type rwaiter struct {
	p       *Proc
	r       *Resource // set while queued/granted; cleared on normal return
	gen     uint64
	prio    int
	seq     uint64
	granted bool
	index   int
}

// rwaiterHeap is a hand-specialized binary max-heap of waiter records
// ordered by (prio desc, seq asc) — no container/heap interface boxing.
type rwaiterHeap []*rwaiter

func (h rwaiterHeap) Len() int { return len(h) }

func (h rwaiterHeap) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio // higher priority first
	}
	return h[i].seq < h[j].seq
}

func (h rwaiterHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *rwaiterHeap) push(w *rwaiter) {
	w.index = len(*h)
	*h = append(*h, w)
	a := *h
	i := w.index
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a.swap(i, parent)
		i = parent
	}
}

func (h *rwaiterHeap) pop() *rwaiter {
	a := *h
	n := len(a) - 1
	a.swap(0, n)
	w := a[n]
	a[n] = nil
	*h = a[:n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a.less(c+1, c) {
			c++
		}
		if !a.less(c, i) {
			break
		}
		a.swap(i, c)
		i = c
	}
	return w
}

// NewResource creates a resource with the given capacity (must be >= 1).
func NewResource(e *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, cap: capacity}
}

// Cap returns the resource capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of currently-held units.
func (r *Resource) InUse() int { return r.inUse }

// MaxWaiterPrio returns the highest priority among live waiters; ok is
// false if no live waiter is queued.
func (r *Resource) MaxWaiterPrio() (prio int, ok bool) {
	r.purgeDeadTop()
	if r.q.Len() == 0 {
		return 0, false
	}
	return r.q[0].prio, true
}

func dead(p *Proc) bool { return p.killed || p.terminated }

// purgeDeadTop drops dead waiters from the head of the queue.
func (r *Resource) purgeDeadTop() {
	for r.q.Len() > 0 && dead(r.q[0].p) {
		r.q.pop()
	}
}

// Acquire obtains one unit, blocking until available. Higher prio values
// are served first.
func (r *Resource) Acquire(p *Proc, prio int) {
	if r.inUse < r.cap {
		r.purgeDeadTop()
		if r.q.Len() == 0 {
			r.inUse++
			return
		}
	}
	r.seq++
	w := &p.rw
	*w = rwaiter{p: p, r: r, gen: p.arm(), prio: prio, seq: r.seq}
	r.q.push(w)
	r.grantNext()
	p.block() // on kill-unwind, block() releases the grant via w
	w.r = nil // normal return: the caller now owns the unit
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.purgeDeadTop()
		if r.q.Len() == 0 {
			r.inUse++
			return true
		}
	}
	return false
}

// Release returns one unit and grants it to the next live waiter, if any.
func (r *Resource) Release() { r.release() }

func (r *Resource) release() {
	if r.inUse <= 0 {
		panic("sim: resource released more than acquired")
	}
	r.inUse--
	r.grantNext()
}

func (r *Resource) grantNext() {
	for r.inUse < r.cap && r.q.Len() > 0 {
		w := r.q.pop()
		if dead(w.p) {
			continue
		}
		w.granted = true
		r.inUse++
		r.env.wakeAt(r.env.now, w.p, w.gen)
	}
}
