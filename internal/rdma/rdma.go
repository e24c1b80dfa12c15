// Package rdma models an RDMA-over-converged-Ethernet fabric: NIC ports
// with finite bandwidth and two-sided send/receive RPC onto service queues.
//
// All transfer time is charged to the calling simulation process — exactly
// the thread that posts and waits for the verb in the real system. Each
// port's egress bandwidth is a shared contended link, which reproduces
// network saturation; per-message overhead models headers so large-transfer
// goodput lands below line rate, as measured on the testbed.
package rdma

import (
	"fmt"
	"time"

	"linefs/internal/hw"
	"linefs/internal/sim"
	"linefs/internal/stats"
)

// Fabric is the switched network connecting NIC ports.
type Fabric struct {
	Env *sim.Env
	// SwitchLat is the one-way propagation latency through the switch.
	SwitchLat time.Duration
	// Total counts all bytes put on the wire (for bandwidth plots).
	Total  stats.Counter
	Series *stats.TimeSeries

	// Faults, when non-nil, is the deterministic fault-injection plane
	// applied at every dispatch point (see fault.go). Nil — the default —
	// costs nothing.
	Faults *FaultPlane
	// Robust receives the robustness counters the fabric produces even
	// without a fault plane (timed-out calls, discarded late replies): its
	// own until an owner points it at a cluster's.
	Robust *stats.Robustness

	ports map[string]*NIC
}

// NewFabric creates a fabric with the given switch latency.
func NewFabric(env *sim.Env, switchLat time.Duration) *Fabric {
	return &Fabric{Env: env, SwitchLat: switchLat, Robust: &stats.Robustness{}, ports: make(map[string]*NIC)}
}

// NIC is a network port: the RDMA-capable interface of a host or SmartNIC.
type NIC struct {
	Fab  *Fabric
	Name string
	// TX is the egress link; ingress is accounted but not serialized
	// (full-duplex ports, single-predecessor chain traffic).
	TX *hw.Link
	RX stats.Counter

	services map[string]func(*Conn) *sim.Queue[*Msg]
}

// msgOverhead is charged per message on the wire (headers, CRC).
const msgOverhead = 96

// NewNIC registers a port on the fabric with the given egress bandwidth.
func (f *Fabric) NewNIC(name string, bytesPerSec float64) *NIC {
	if _, ok := f.ports[name]; ok {
		panic(fmt.Sprintf("rdma: duplicate NIC %q", name))
	}
	n := &NIC{
		Fab:      f,
		Name:     name,
		TX:       hw.NewLink(f.Env, name+"/tx", 0, bytesPerSec),
		services: make(map[string]func(*Conn) *sim.Queue[*Msg]),
	}
	f.ports[name] = n
	return n
}

// Lookup finds a port by name.
func (f *Fabric) Lookup(name string) *NIC {
	n, ok := f.ports[name]
	if !ok {
		panic(fmt.Sprintf("rdma: unknown NIC %q", name))
	}
	return n
}

// Register exposes a service queue for two-sided messages.
func (n *NIC) Register(service string, q *sim.Queue[*Msg]) {
	n.RegisterPerConn(service, func(*Conn) *sim.Queue[*Msg] { return q })
}

// RegisterPerConn exposes a service that takes each queue pair's messages, in
// the order sent, on the queue queueOf names for it at every post.
func (n *NIC) RegisterPerConn(service string, queueOf func(*Conn) *sim.Queue[*Msg]) {
	n.services[service] = queueOf
}

// Unregister removes a service (e.g. when its node crashes).
func (n *NIC) Unregister(service string) {
	delete(n.services, service)
}

// Msg is a two-sided message delivered to a service queue.
type Msg struct {
	Op   string
	From *NIC
	Arg  any
	// Size is the payload wire size in bytes.
	Size int

	conn  *Conn
	reply *sim.Event
	// abandoned marks a call whose sender timed out and moved on: a late
	// Respond/RespondErr is discarded instead of triggering into the stale
	// event.
	abandoned bool
}

// Reply carries an RPC response value.
type Reply struct {
	Val any
	Err error
}

// Conn is a queue pair between two ports bound to a remote service.
type Conn struct {
	Local, Remote *NIC
	Service       string
	// LowLat marks the latency-critical QP class (the serving side dispatches
	// its messages ahead of bulk work); it does not change wire cost.
	LowLat bool
	// Prio orders this connection's traffic on shared links.
	Prio int
}

// ClassPrio is a QP class's link priority: on every hw.Link it shares with
// bulk traffic, the low-latency class preempts the bulk segment in service.
func ClassPrio(lowLat bool) int {
	if lowLat {
		return 8
	}
	return 0
}

// Dial opens a queue pair from local to the named service on remote.
// Low-latency connections carry link priority: their (small) messages are
// not serialized behind bulk transfers at saturated ports. A queue pair costs
// nothing to hold: no NIC connection cache is modeled (EXPERIMENTS.md
// deviation 10).
func Dial(local, remote *NIC, service string, lowLat bool) *Conn {
	return &Conn{Local: local, Remote: remote, Service: service, LowLat: lowLat, Prio: ClassPrio(lowLat)}
}

// hop charges one direction of the wire to p: egress serialization at from
// of the payload plus per-message overhead, switch propagation, ingress
// accounting at to.
func (c *Conn) hop(p *sim.Proc, from, to *NIC, size int) {
	w := size + msgOverhead
	from.TX.Transfer(p, w, c.Prio)
	from.Fab.Total.Add(int64(w))
	if s := from.Fab.Series; s != nil {
		s.Add(time.Duration(p.Env().Now()), float64(w))
	}
	p.Sleep(from.Fab.SwitchLat)
	to.RX.Add(int64(w))
}

// sendCost charges the request path.
func (c *Conn) sendCost(p *sim.Proc, size int) { c.hop(p, c.Local, c.Remote, size) }

// returnCost charges the response path back to the caller.
func (c *Conn) returnCost(p *sim.Proc, size int) { c.hop(p, c.Remote, c.Local, size) }

// ErrUnreachable is returned when the remote service is not registered
// (node down or not yet started).
var ErrUnreachable = fmt.Errorf("rdma: service unreachable")

// post is the one two-sided dispatch path: it charges the request path,
// builds the Msg — with a reply event when the sender will wait for a
// response — consults the fault plane, and enqueues on the remote service.
// A nil error means the frame was posted, not that it will arrive: the
// plane may have dropped, deferred, or duplicated it.
func (c *Conn) post(p *sim.Proc, op string, arg any, size int, wantReply bool) (*Msg, error) {
	c.sendCost(p, size)
	queueOf, ok := c.Remote.services[c.Service]
	if !ok {
		return nil, ErrUnreachable
	}
	q := queueOf(c)
	m := &Msg{Op: op, From: c.Local, Arg: arg, Size: size, conn: c}
	if wantReply {
		m.reply = sim.NewEvent(p.Env())
	}
	if fp := c.Local.Fab.Faults; fp != nil && fp.injectSend(p, c, q, m) {
		// The plane consumed delivery; the wire cost is already paid, and a
		// reply event fires only if some copy of the frame reaches a handler.
		return m, nil
	}
	if !q.Put(p, m) {
		return nil, ErrUnreachable
	}
	return m, nil
}

// Send delivers a one-way message to the remote service, blocking the
// caller for the wire time only. A frame the fault plane eats still reports
// a successful post (fire-and-forget semantics).
func (c *Conn) Send(p *sim.Proc, op string, arg any, size int) error {
	_, err := c.post(p, op, arg, size, false)
	return err
}

// Call delivers a message and blocks until the handler responds. A fault
// plane that drops the request frame leaves the caller blocked — lost
// requests without a deadline hang, exactly as on real hardware; paths that
// may face faults use CallTimeout.
func (c *Conn) Call(p *sim.Proc, op string, arg any, size int) (any, error) {
	v, err, _ := c.CallTimeout(p, op, arg, size, 0, nil)
	return v, err
}

// CallTimeout is Call with an upper bound d on the wait for the response
// (d <= 0 means none, and schedules no timer); ok=false means no
// response in d (e.g. the serving process died mid-request, or the fault
// plane ate the frame) — unless alive (if non-nil) reports, each time d
// runs out, that the caller sees the handler getting somewhere by other
// means: the same call then waits another d. A timed-out call is abandoned:
// if the handler later responds anyway, the late response is discarded
// instead of triggering into the caller that moved on. What the caller lent
// the handler for the call's duration it must therefore treat as lent for
// good.
func (c *Conn) CallTimeout(p *sim.Proc, op string, arg any, size int, d time.Duration, alive func() bool) (any, error, bool) {
	m, err := c.post(p, op, arg, size, true)
	if err != nil {
		return nil, err, true
	}
	if d <= 0 {
		rep := p.Wait(m.reply).(Reply)
		return rep.Val, rep.Err, true
	}
	v, replied := p.WaitTimeout(m.reply, d)
	for !replied && alive != nil && alive() {
		v, replied = p.WaitTimeout(m.reply, d)
	}
	if !replied {
		m.abandoned = true
		c.Local.Fab.Robust.RPCTimeouts++
		return nil, nil, false
	}
	rep := v.(Reply)
	return rep.Val, rep.Err, true
}

// Respond sends the RPC response of the given wire size back to the caller,
// charging the serving process for the return path. If the caller has
// already timed out and abandoned the call, the response still burns its
// wire time (the responder cannot know) but is discarded at the caller's
// NIC instead of triggering into an event nobody waits on.
func (m *Msg) Respond(p *sim.Proc, val any, size int) { m.respond(p, Reply{Val: val}, size) }

// RespondErr sends an error response.
func (m *Msg) RespondErr(p *sim.Proc, err error) { m.respond(p, Reply{Err: err}, 16) }

func (m *Msg) respond(p *sim.Proc, rep Reply, size int) {
	if m.reply == nil {
		return
	}
	m.conn.returnCost(p, size)
	if m.abandoned {
		m.conn.Local.Fab.Robust.RepliesDiscarded++
		return
	}
	m.reply.Trigger(rep)
}

// Abandoned reports whether the sender timed out on this call and moved on.
func (m *Msg) Abandoned() bool { return m.abandoned }
