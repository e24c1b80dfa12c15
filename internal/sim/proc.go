package sim

import (
	"fmt"
	"time"
)

// killSignal is panicked inside a killed process to unwind its stack.
type killSignal struct{}

// Proc is a simulation process: a goroutine that runs cooperatively under
// the environment's event loop. A process blocks by calling Sleep, Wait,
// Acquire and friends; while blocked, virtual time advances.
type Proc struct {
	env  *Env
	name string
	fn   func(*Proc)
	id   uint64 // per-Env spawn ordinal, folded into the trace digest

	resume chan struct{}

	// gen is bumped every time the process blocks; wake-ups carry the
	// generation they were armed with so stale wake-ups are discarded.
	gen     uint64
	blocked bool

	terminated bool
	killed     bool

	// rw is the process's resource-wait record. A process queues on at most
	// one Resource at a time, so embedding the record makes contended
	// Acquire allocation-free.
	rw rwaiter

	g *Group // the group it dies with, if any

	// Done triggers when the process function returns or is killed.
	Done *Event
}

// Go starts a new process running fn. The process begins at the current
// virtual time (after already-queued events at this timestamp). Started by
// a process, it joins that process's group.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.cur != nil {
		return e.spawn(e.cur.g, name, fn)
	}
	return e.spawn(nil, name, fn)
}

// spawn starts a process in group g (nil for none).
func (e *Env) spawn(g *Group, name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		g:      g,
		env:    e,
		name:   name,
		fn:     fn,
		resume: make(chan struct{}),
		Done:   NewEvent(e),
	}
	e.live++
	e.procSeq++
	p.id = uint64(e.procSeq)
	if e.tracing {
		e.traceSpawn(p)
	}
	e.all.add(p)
	if g != nil {
		g.add(p)
	}
	e.seq++
	e.eq.push(item{t: e.now, seq: e.seq, kind: evStart, p: p})
	return p
}

// top is the process goroutine body. On termination — normal return or
// kill-unwind — it keeps driving the event loop from this dying goroutine
// and hands control onward before exiting.
func (p *Proc) top() {
	<-p.resume
	defer func() {
		r := recover()
		if r != nil {
			if _, ok := r.(killSignal); !ok {
				// Re-panicking here would crash an unrelated goroutine
				// stack; annotate with the process name for diagnosis.
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
		p.terminated = true
		p.env.live--
		p.Done.trigger(nil)
		p.env.handoff(p.env.loop(nil))
	}()
	p.fn(p)
}

// Env returns the environment that owns the process.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at creation.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// block parks the process until a matching wake-up dispatches it again.
// Callers must have armed a wake-up (timer, event waiter, resource grant)
// carrying the returned generation before calling block.
//
// Rather than handing control to a central scheduler goroutine, the
// blocking process continues the event loop itself. If the next runnable
// action is its own wake-up it simply keeps running (no channel operation);
// otherwise it hands control onward with a single channel rendezvous and
// parks.
func (p *Proc) block() {
	e := p.env
	if next := e.loop(p); next != p {
		e.handoff(next)
		<-p.resume
	}
	if p.killed {
		// Unwinding from a kill: if we hold a freshly-granted resource
		// unit (granted while queued, before the kill fired), return it
		// as we unwind.
		if p.rw.granted && p.rw.r != nil {
			p.rw.r.release()
			p.rw.r = nil
		}
		panic(killSignal{})
	}
}

// arm marks the process blocked and returns the wake generation that
// wake-ups must carry.
func (p *Proc) arm() uint64 {
	p.gen++
	p.blocked = true
	return p.gen
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return
	}
	gen := p.arm()
	p.env.wakeAt(p.env.now+Time(d), p, gen)
	p.block()
}

// Kill terminates the process the next time it would run. Killing an
// already-terminated process is a no-op. A process cannot kill itself;
// return from its function instead.
func (p *Proc) Kill() {
	if p.terminated || p.killed {
		return
	}
	p.killed = true
	if p.blocked {
		// Wake the victim now (at its current generation) so its block()
		// observes the kill and unwinds.
		p.env.wakeAt(p.env.now, p, p.gen)
	}
	// If the process is currently runnable (e.g. it is the caller's peer
	// mid-dispatch) the kill flag is checked at its next block().
}

// Wait blocks until ev triggers and returns its value. If ev has already
// triggered it returns immediately.
func (p *Proc) Wait(ev *Event) any {
	if ev.done {
		return ev.val
	}
	gen := p.arm()
	ev.addWaiter(p, gen)
	p.block()
	return ev.val
}

// WaitTimeout blocks until ev triggers or d elapses. ok reports whether the
// event triggered (true) rather than the timeout firing (false).
func (p *Proc) WaitTimeout(ev *Event, d time.Duration) (val any, ok bool) {
	if ev.done {
		return ev.val, true
	}
	if d < 0 {
		d = 0
	}
	gen := p.arm()
	ev.addWaiter(p, gen)
	p.env.wakeAt(p.env.now+Time(d), p, gen)
	p.block()
	if ev.done {
		return ev.val, true
	}
	return nil, false
}
