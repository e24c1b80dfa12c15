// Package rdma models an RDMA-over-converged-Ethernet fabric: NIC ports
// with finite bandwidth, verbs-style one-sided READ/WRITE into registered
// memory regions, and two-sided send/receive RPC onto service queues.
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

	// MsgOverhead is charged per message on the wire (headers, CRC).
	MsgOverhead int

	// QPs tracks open queue pairs; beyond QPCacheSize the NIC's connection
	// cache thrashes and per-message latency grows.
	QPs         int
	QPCacheSize int
	QPPenalty   time.Duration // extra latency per QP beyond the cache size

	services map[string]func(*Conn) *sim.Queue[*Msg]
	regions  map[string]Region
}

// NewNIC registers a port on the fabric with the given egress bandwidth.
func (f *Fabric) NewNIC(name string, bytesPerSec float64) *NIC {
	if _, ok := f.ports[name]; ok {
		panic(fmt.Sprintf("rdma: duplicate NIC %q", name))
	}
	n := &NIC{
		Fab:         f,
		Name:        name,
		TX:          hw.NewLink(f.Env, name+"/tx", 0, bytesPerSec),
		MsgOverhead: 96,
		QPCacheSize: 64,
		QPPenalty:   200 * time.Nanosecond,
		services:    make(map[string]func(*Conn) *sim.Queue[*Msg]),
		regions:     make(map[string]Region),
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

// RegisterRegion exposes a memory region for one-sided access.
func (n *NIC) RegisterRegion(name string, r Region) {
	n.regions[name] = r
}

// Region is registered memory that remote one-sided verbs can access.
// Implementations charge the cost of reaching the backing memory (NIC DRAM,
// or host PM across PCIe).
type Region interface {
	ReadAt(p *sim.Proc, off int64, dst []byte)
	WriteAt(p *sim.Proc, off int64, src []byte)
	Size() int64
}

// extraLat returns the per-message latency penalty from QP cache pressure.
func (n *NIC) extraLat() time.Duration {
	over := n.QPs - n.QPCacheSize
	if over <= 0 {
		return 0
	}
	return time.Duration(over) * n.QPPenalty
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
	// event, and onDiscard (if any) releases resources the sender lent the
	// handler for the call's duration.
	abandoned bool
	onDiscard func(p *sim.Proc)
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
	// LowLat marks the latency-critical QP class (dedicated polling on the
	// serving side); it does not change wire cost, only queue routing.
	LowLat bool
	// Prio orders this connection's traffic on shared links.
	Prio int

	closed bool
}

// Dial opens a queue pair from local to the named service on remote.
// Low-latency connections carry link priority: their (small) messages are
// not serialized behind bulk transfers at saturated ports.
func Dial(local, remote *NIC, service string, lowLat bool) *Conn {
	local.QPs++
	remote.QPs++
	prio := 0
	if lowLat {
		prio = 8
	}
	return &Conn{Local: local, Remote: remote, Service: service, LowLat: lowLat, Prio: prio}
}

// Close releases the queue pair.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.Local.QPs--
	c.Remote.QPs--
}

// hop charges one direction of the wire to p: egress serialization at from
// of the payload plus per-message overhead, switch propagation plus lat,
// ingress accounting at to.
func (c *Conn) hop(p *sim.Proc, from, to *NIC, size int, lat time.Duration) {
	w := size + c.Local.MsgOverhead
	from.TX.Transfer(p, w, c.Prio)
	from.Fab.Total.Add(int64(w))
	if s := from.Fab.Series; s != nil {
		s.Add(time.Duration(p.Env().Now()), float64(w))
	}
	p.Sleep(from.Fab.SwitchLat + lat)
	to.RX.Add(int64(w))
}

// sendCost charges the request path, QP-cache penalties included.
func (c *Conn) sendCost(p *sim.Proc, size int) {
	c.hop(p, c.Local, c.Remote, size, c.Local.extraLat()+c.Remote.extraLat())
}

// returnCost charges the response path back to the caller.
func (c *Conn) returnCost(p *sim.Proc, size int) { c.hop(p, c.Remote, c.Local, size, 0) }

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
	v, err, _ := c.CallTimeout(p, op, arg, size, 0, nil, nil)
	return v, err
}

// CallTimeout is Call with an upper bound d on the wait for the response
// (d <= 0 means none, and schedules no timer); ok=false means no
// response in d (e.g. the serving process died mid-request, or the fault
// plane ate the frame) — unless alive (if non-nil) reports, each time d
// runs out, that the caller sees the handler getting somewhere by other
// means: the same call then waits another d. A timed-out call is abandoned:
// if the handler later responds anyway, the late response is discarded
// instead of triggering into the caller that moved on, and onDiscard (if
// non-nil) runs once, in the responder's process context — the moment
// resources the caller lent the handler for the call's duration (e.g. pooled
// buffers a kernel worker was still reading) are known free. If the handler
// never responds, onDiscard never runs.
func (c *Conn) CallTimeout(p *sim.Proc, op string, arg any, size int, d time.Duration, alive func() bool, onDiscard func(p *sim.Proc)) (any, error, bool) {
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
		m.onDiscard = onDiscard
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
	if m.discardLate(p) {
		return
	}
	m.reply.Trigger(rep)
}

// discardLate drops a response to an abandoned call, running the caller's
// discard hook exactly once.
func (m *Msg) discardLate(p *sim.Proc) bool {
	if !m.abandoned {
		return false
	}
	m.conn.Local.Fab.Robust.RepliesDiscarded++
	if fn := m.onDiscard; fn != nil {
		m.onDiscard = nil
		fn(p)
	}
	return true
}

// NeedsReply reports whether the sender is waiting on a response.
func (m *Msg) NeedsReply() bool { return m.reply != nil }

// RDMARead fetches len(dst) bytes from the named remote region at off using
// a one-sided READ: no remote CPU involvement. The caller pays the request
// round trip, the remote region's memory cost, and the data serialization
// on the remote's egress.
func (c *Conn) RDMARead(p *sim.Proc, region string, off int64, dst []byte) error {
	r, ok := c.Remote.regions[region]
	if !ok {
		return ErrUnreachable
	}
	var corrupt bool
	if fp := c.Local.Fab.Faults; fp != nil {
		err, cr := fp.injectOneSided(p, c)
		if err != nil {
			return err
		}
		corrupt = cr
	}
	// Request descriptor out.
	c.sendCost(p, 16)
	// Remote NIC pulls from the region (possibly across PCIe) …
	r.ReadAt(p, off, dst)
	// … and streams it back.
	c.returnCost(p, len(dst))
	if corrupt {
		c.Local.Fab.Faults.CorruptBytes(dst)
	}
	return nil
}

// RDMAWrite places src into the named remote region at off using a
// one-sided WRITE, again without remote CPU involvement.
func (c *Conn) RDMAWrite(p *sim.Proc, region string, off int64, src []byte) error {
	r, ok := c.Remote.regions[region]
	if !ok {
		return ErrUnreachable
	}
	if fp := c.Local.Fab.Faults; fp != nil {
		err, corrupt := fp.injectOneSided(p, c)
		if err != nil {
			return err
		}
		if corrupt {
			// The source buffer belongs to the sender (it may be a pooled
			// chunk still referenced elsewhere), so corruption lands on a
			// scratch copy, never the original.
			bad := make([]byte, len(src))
			copy(bad, src)
			fp.CorruptBytes(bad)
			src = bad
		}
	}
	c.sendCost(p, len(src))
	r.WriteAt(p, off, src)
	return nil
}

// PMRegion exposes a window of a PM device, optionally behind extra links
// (PCIe when the accessor is a SmartNIC reaching host PM).
type PMRegion struct {
	PM    *hw.PM
	Base  int64
	Len   int64
	Extra []*hw.Link
	// Persist makes one-sided writes durable immediately (RDMA into PM with
	// DDIO disabled / flush-on-write), which chain replication relies on.
	Persist bool
}

// ReadAt implements Region.
func (r *PMRegion) ReadAt(p *sim.Proc, off int64, dst []byte) {
	for _, l := range r.Extra {
		l.Transfer(p, len(dst), 0)
	}
	r.PM.Read(p, r.Base+off, dst)
}

// WriteAt implements Region.
func (r *PMRegion) WriteAt(p *sim.Proc, off int64, src []byte) {
	for _, l := range r.Extra {
		l.Transfer(p, len(src), 0)
	}
	if r.Persist {
		r.PM.WritePersist(p, r.Base+off, src)
	} else {
		r.PM.Write(p, r.Base+off, src)
	}
}

// Size implements Region.
func (r *PMRegion) Size() int64 { return r.Len }

// MemRegion exposes a volatile buffer (SmartNIC DRAM) with its memory cost.
type MemRegion struct {
	Mem  *hw.Mem
	Data []byte
}

// ReadAt implements Region.
func (r *MemRegion) ReadAt(p *sim.Proc, off int64, dst []byte) {
	r.Mem.Access(p, len(dst))
	copy(dst, r.Data[off:])
}

// WriteAt implements Region.
func (r *MemRegion) WriteAt(p *sim.Proc, off int64, src []byte) {
	r.Mem.Access(p, len(src))
	copy(r.Data[off:], src)
}

// Size implements Region.
func (r *MemRegion) Size() int64 { return int64(len(r.Data)) }
