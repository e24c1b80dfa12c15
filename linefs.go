// Package linefs is a from-scratch reproduction of LineFS (SOSP '21):
// a SmartNIC-offloaded distributed file system with client-local persistent
// memory, built over a deterministic discrete-event simulation of the
// paper's testbed (PM, PCIe, BlueField-style SmartNICs, a 25 GbE RDMA
// fabric).
//
// The package exposes a small facade: construct a simulated Cluster of one
// of the evaluated systems (LineFS, LineFS without pipeline parallelism, or
// the Assise baselines), attach clients, and drive them from simulation
// processes with a POSIX-like API:
//
//	cl, _ := linefs.New(linefs.Defaults())
//	cl.Run(func(p *linefs.Proc) {
//	    c, _ := cl.Attach(p, 0)
//	    fd, _ := c.Create(p, "/hello")
//	    c.WriteAt(p, fd, 0, []byte("persist and publish"))
//	    c.Fsync(p, fd) // durable on all replicas
//	})
//
// Everything the paper's evaluation measures is regenerable through the
// linefs-bench command (internal/bench); see EXPERIMENTS.md.
package linefs

import (
	"fmt"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/sim"
	"linefs/internal/systems"
)

// System selects which of the paper's evaluated systems to build.
type System = systems.Kind

// Systems under test (§5.1).
const (
	// LineFS is the full system: NICFS pipelines on the SmartNIC.
	LineFS = systems.LineFS
	// LineFSNotParallel disables pipeline parallelism (the ablation).
	LineFSNotParallel = systems.LineFSNotParallel
	// Assise is the baseline in pessimistic mode.
	Assise = systems.Assise
	// AssiseBgRepl adds background replication threads.
	AssiseBgRepl = systems.AssiseBgRepl
	// AssiseHyperloop offloads replication to the RDMA NIC.
	AssiseHyperloop = systems.AssiseHyperloop
)

// Proc is a simulation process; every file system call takes the calling
// process so its time cost lands on the right timeline.
type Proc = sim.Proc

// Client is a per-process file system handle (the paper's LibFS).
type Client = dfs.Client

// Options configure a cluster.
type Options struct {
	// System selects the DFS under test.
	System System
	// Nodes is the cluster size; Replicas the chain length beyond the
	// primary.
	Nodes    int
	Replicas int
	// MaxClients bounds attached clients (sizes the PM log slots).
	MaxClients int
	// VolSize / LogSize / ChunkSize control the PM layout.
	VolSize   int64
	LogSize   int64
	ChunkSize int
	// Compression enables LineFS's replication compression stage.
	Compression bool
	// Seed makes the simulation deterministic.
	Seed int64
}

// Defaults returns a three-node cluster of full LineFS at a
// simulation-friendly scale.
func Defaults() Options {
	return Options{
		System:     LineFS,
		Nodes:      3,
		Replicas:   2,
		MaxClients: 8,
		VolSize:    512 << 20,
		LogSize:    32 << 20,
		ChunkSize:  4 << 20,
		Seed:       1,
	}
}

// Cluster is a running simulated deployment of one system.
type Cluster struct {
	sys *systems.System
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	l := cluster.DefaultLayout()
	l.Nodes, l.Replicas, l.MaxClients = opts.Nodes, opts.Replicas, opts.MaxClients
	l.VolSize, l.LogSize, l.ChunkSize = opts.VolSize, opts.LogSize, opts.ChunkSize
	l.Spec.PMSize = opts.VolSize + int64(opts.MaxClients)*opts.LogSize + (64 << 20)
	sys, err := systems.New(sim.NewEnv(opts.Seed), opts.System, l, func(cfg *core.Config) { cfg.Compress = opts.Compression })
	if err != nil {
		return nil, err
	}
	sys.Start()
	return &Cluster{sys: sys}, nil
}

// Env exposes the simulation environment for advanced orchestration
// (spawning co-runner processes, custom fault schedules).
func (c *Cluster) Env() *sim.Env { return c.sys.Env }

// Attach creates a client process handle on the given machine.
func (c *Cluster) Attach(p *Proc, machine int) (*Client, error) {
	return c.sys.Attach(p, machine)
}

// Run executes fn as an application process and drives the simulation
// until it returns (bounded by limit if > 0, else one hour of virtual
// time). It reports whether fn completed.
func (c *Cluster) Run(fn func(p *Proc)) bool { return c.RunLimited(fn, 0) }

// RunLimited is Run with an explicit virtual-time bound.
func (c *Cluster) RunLimited(fn func(p *Proc), limit time.Duration) bool {
	if limit <= 0 {
		limit = time.Hour
	}
	pr := c.sys.Env.Go("app", func(p *sim.Proc) {
		fn(p)
	})
	// Run straight to the app's completion event rather than polling the
	// clock in 50 ms steps; background activity stops burning events the
	// moment fn returns.
	c.sys.Env.Go("app/wait", func(p *sim.Proc) {
		p.WaitTimeout(pr.Done, limit)
		c.sys.Env.Stop()
	})
	c.sys.Env.Run()
	return pr.Done.Triggered()
}

// RunFor advances virtual time by d (background activity continues).
func (c *Cluster) RunFor(d time.Duration) { c.sys.Env.RunFor(d) }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return time.Duration(c.sys.Env.Now()) }

// CrashHost fails machine i's host OS (LineFS only keeps serving through
// its SmartNIC; see §3.5).
func (c *Cluster) CrashHost(i int) error {
	if c.sys.LineFS == nil {
		return fmt.Errorf("linefs: host crash injection is implemented for LineFS clusters")
	}
	c.sys.LineFS.CrashHost(i)
	return nil
}

// RecoverHost reboots machine i's host OS.
func (c *Cluster) RecoverHost(i int) error {
	if c.sys.LineFS == nil {
		return fmt.Errorf("linefs: host recovery is implemented for LineFS clusters")
	}
	c.sys.LineFS.RecoverHost(i)
	return nil
}

// Isolated reports whether machine i's NICFS publishes in isolated mode (host
// kernel worker unreachable); log persists never use the worker either way.
func (c *Cluster) Isolated(i int) bool {
	return c.sys.LineFS != nil && c.sys.LineFS.NICs[i].Isolated
}

// Stats summarizes cluster-level counters.
type Stats struct {
	// NetworkBytes is the total volume put on the cluster fabric.
	NetworkBytes int64
	// PublishedBytes counts data published to public PM across nodes.
	PublishedBytes int64
	// ReplicatedRawBytes and ReplicatedWireBytes report replication volume
	// before and after compression (LineFS).
	ReplicatedRawBytes  int64
	ReplicatedWireBytes int64
}

// Stats returns current cluster counters.
func (c *Cluster) Stats() Stats {
	s := Stats{NetworkBytes: c.sys.Fabric.Total.Total()}
	if lf := c.sys.LineFS; lf != nil {
		for _, n := range lf.NICs {
			s.PublishedBytes += n.PubBytes
			s.ReplicatedRawBytes += n.RepBytes
			s.ReplicatedWireBytes += n.RepWireBytes
		}
	} else {
		for _, sh := range c.sys.Assise.Shared {
			s.PublishedBytes += sh.DigestedBytes
		}
	}
	return s
}
