// Package cephsim implements a minimal Ceph-like client-server DFS, built
// solely to reproduce Table 1 of the paper: client CPU utilization and
// write throughput versus the client-local Assise under different network
// speeds. Writes go through a client-side cache and messaging layer
// (serialization + CRC on client cores), are streamed to object servers in
// batches, and are replicated server-side — so client CPU cost tracks the
// protocol work rather than file system management, and stays flatter as
// bandwidth grows.
package cephsim

import (
	"fmt"
	"time"

	"linefs/internal/hw"
	"linefs/internal/node"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// Config parameterizes the deployment.
type Config struct {
	Spec node.Spec
	// Servers is the number of object-storage servers.
	Servers int
	// Replicas is the server-side replication factor beyond the primary.
	Replicas int
	// BatchSize is the client write-back unit.
	BatchSize int
	// Window bounds batches in flight per client.
	Window int
	// ServerPerKB is the OSD processing cost per KiB of payload
	// (journaling, checksums, replication bookkeeping).
	ServerPerKB time.Duration
}

// DefaultConfig mirrors the Table 1 setup.
func DefaultConfig() Config {
	spec := node.DefaultSpec()
	return Config{
		Spec:        spec,
		Servers:     3,
		Replicas:    2,
		BatchSize:   1 << 20,
		Window:      2,
		ServerPerKB: 600 * time.Nanosecond, // ~0.6 ns/B: ~1.6 GB/s per server pipeline
	}
}

// Cluster is one client machine plus object servers.
type Cluster struct {
	Env *sim.Env
	Cfg Config

	Fabric  *rdma.Fabric
	ClientM *node.Machine
	Servers []*node.Machine

	svcQs []*sim.Queue[*rdma.Msg]

	started bool
	nextID  int
}

// NewCluster builds the deployment.
func NewCluster(env *sim.Env, cfg Config) *Cluster {
	cl := &Cluster{Env: env, Cfg: cfg, Fabric: node.NewFabric(env, cfg.Spec)}
	store := new(hw.PageStore)
	cl.ClientM = node.NewMachine(env, cl.Fabric, store, "client", cfg.Spec)
	for i := 0; i < cfg.Servers; i++ {
		cl.Servers = append(cl.Servers, node.NewMachine(env, cl.Fabric, store, fmt.Sprintf("osd%d", i), cfg.Spec))
	}
	return cl
}

// Start launches the server processes.
func (cl *Cluster) Start() {
	if cl.started {
		return
	}
	cl.started = true
	for i, s := range cl.Servers {
		q := sim.NewQueue[*rdma.Msg](cl.Env, 0)
		s.Port.Register("osd", q)
		cl.svcQs = append(cl.svcQs, q)
		srv := s
		idx := i
		queue := q
		cl.Env.Go(fmt.Sprintf("osd%d/dispatch", i), func(p *sim.Proc) {
			// Dispatch each request to its own handler so chain forwarding
			// cannot deadlock a bounded pool; server capacity is bounded by
			// its cores, not by handler count.
			for {
				msg, ok := queue.Get(p)
				if !ok {
					return
				}
				m := msg
				cl.Env.Go("osd-handler", func(hp *sim.Proc) {
					cl.serve(hp, idx, srv, m)
				})
			}
		})
	}
}

type writeReq struct {
	Bytes int
	Hop   int
}

// serve processes one write batch: per-byte OSD work, then server-side
// replication to the next peer in the placement group.
func (cl *Cluster) serve(p *sim.Proc, idx int, m *node.Machine, msg *rdma.Msg) {
	req := msg.Arg.(*writeReq)
	m.HostCPU.Compute(p, time.Duration(req.Bytes)*cl.Cfg.ServerPerKB/1024, 0, "osd")
	m.PM.Link().Transfer(p, req.Bytes, 0)
	if req.Hop < cl.Cfg.Replicas {
		next := (idx + 1) % len(cl.Servers)
		fwd := &writeReq{Bytes: req.Bytes, Hop: req.Hop + 1}
		conn := rdma.Dial(m.Port, cl.Servers[next].Port, "osd", false)
		_, _ = conn.Call(p, "write", fwd, req.Bytes)
	}
	msg.Respond(p, true, 8)
}

// Client is one benchmark process on the client machine.
type Client struct {
	cl   *Cluster
	id   int
	conn *rdma.Conn

	buffered int
	inflight int
	flushed  *sim.Event

	// BytesWritten counts acknowledged payload bytes.
	BytesWritten int64
}

// Attach creates a client process handle.
func (cl *Cluster) Attach(p *sim.Proc) *Client {
	id := cl.nextID
	cl.nextID++
	c := &Client{
		cl:      cl,
		id:      id,
		conn:    rdma.Dial(cl.ClientM.Port, cl.Servers[id%len(cl.Servers)].Port, "osd", false),
		flushed: sim.NewEvent(cl.Env),
	}
	return c
}

// Write performs one buffered file write of n bytes: client-side syscall,
// page-cache copy, CRC and messaging cost; full batches flush to the OSD
// asynchronously within the write-back window.
func (c *Client) Write(p *sim.Proc, n int) {
	spec := c.cl.Cfg.Spec
	cpu := c.cl.ClientM.HostCPU
	// Syscall + cache copy + client messenger (serialize + crc32c).
	cpu.Compute(p, spec.SyscallCost, 0, "ceph")
	cpu.Compute(p, time.Duration(float64(n)/spec.MemcpyBW*float64(time.Second)), 0, "ceph")
	cpu.Compute(p, time.Duration(float64(n)/4e9*float64(time.Second)), 0, "ceph")
	c.buffered += n
	if c.buffered >= c.cl.Cfg.BatchSize {
		c.flush(p)
	}
}

// flush streams the buffered batch, blocking while the window is full.
func (c *Client) flush(p *sim.Proc) {
	n := c.buffered
	c.buffered = 0
	for c.inflight >= c.cl.Cfg.Window {
		ev := c.flushed
		p.Wait(ev)
	}
	c.inflight++
	cl := c.cl
	cl.Env.Go("ceph-flusher", func(fp *sim.Proc) {
		// Messenger send cost on a client core.
		cl.ClientM.HostCPU.Compute(fp, 20*time.Microsecond, 0, "ceph")
		_, _ = c.conn.Call(fp, "write", &writeReq{Bytes: n}, n)
		c.BytesWritten += int64(n)
		c.inflight--
		c.flushed.Trigger(nil)
		c.flushed = sim.NewEvent(cl.Env)
	})
}

// Sync drains outstanding batches.
func (c *Client) Sync(p *sim.Proc) {
	if c.buffered > 0 {
		c.flush(p)
	}
	for c.inflight > 0 {
		ev := c.flushed
		p.Wait(ev)
	}
}
