package main

import (
	"time"

	"linefs/internal/assise"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/node"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// scale fixes the cluster geometry and every workload's size. fullScale is
// what BENCHMARK.json measures; tinyScale lets the package's tests run each
// generator in well under a second and a few tens of MB.
type scale struct {
	pmSize, volSize, logSize int64
	chunk                    int
	inodes, inoRange         int

	seqBytes  int64 // seqwrite, assise_seqwrite: bytes per client
	zipBytes  int64 // zipwrite: bytes per client
	syncOps   int   // syncwrite: write+fsync pairs of the latency client
	ringBytes int64 // syncwrite: bulk client's ring file
	readFile  int64 // readmix: prefilled file
	readOps   int   // readmix: measured ops
	mailFiles int   // mailmix: files per client
	mailOps   int   // mailmix: composites per client
}

// fullScale: 3 nodes x 1 GiB PM, 24 MiB logs, 4 MiB chunks. Sizes keep
// every untraced rep (set-up + measured phase + verification) near 2-3 s on
// a 2-core machine, so that one --seconds window holds several reps.
var fullScale = scale{
	pmSize: 1 << 30, volSize: 896 << 20, logSize: 24 << 20,
	chunk: 4 << 20, inodes: 32768, inoRange: 4096,

	seqBytes:  96 << 20,
	zipBytes:  30 << 20,
	syncOps:   4096,
	ringBytes: 32 << 20,
	readFile:  64 << 20,
	readOps:   200000,
	mailFiles: 400,
	mailOps:   8000,
}

var tinyScale = scale{
	pmSize: 40 << 20, volSize: 32 << 20, logSize: 2 << 20,
	chunk: 256 << 10, inodes: 2048, inoRange: 512,

	seqBytes:  2 << 20,
	zipBytes:  1 << 20,
	syncOps:   48,
	ringBytes: 1 << 20,
	readFile:  2 << 20,
	readOps:   1500,
	mailFiles: 24,
	mailOps:   120,
}

const (
	nodes    = 3
	replicas = 2
)

// system is one running cluster of either DFS, seen through the parts both
// share. Clients always attach on node 0 (the primary of their chains).
type system struct {
	env      *sim.Env
	lf       *core.Cluster
	as       *assise.Cluster
	machines []*node.Machine
	vols     []*fs.Vol
	fabric   *rdma.Fabric
	spec     node.Spec
}

func newSystem(seed int64, sc scale, useAssise, compress bool, clients int, traced bool) (*system, error) {
	env := sim.NewEnv(seed)
	if traced {
		env.EnableTrace()
	}
	s := &system{env: env}
	if useAssise {
		cfg := assise.DefaultConfig()
		cfg.Spec.PMSize = sc.pmSize
		cfg.Nodes, cfg.Replicas, cfg.MaxClients = nodes, replicas, clients
		cfg.VolSize, cfg.LogSize, cfg.ChunkSize = sc.volSize, sc.logSize, sc.chunk
		cfg.InodesPerVol, cfg.InoRangePerClient = sc.inodes, sc.inoRange
		cfg.Mode = assise.Pessimistic
		cl, err := assise.NewCluster(env, cfg)
		if err != nil {
			return nil, err
		}
		cl.Start()
		s.as, s.machines, s.vols, s.fabric, s.spec = cl, cl.Machines, cl.Vols, cl.Fabric, cfg.Spec
		return s, nil
	}
	cfg := core.DefaultConfig()
	cfg.Spec.PMSize = sc.pmSize
	cfg.Nodes, cfg.Replicas, cfg.MaxClients = nodes, replicas, clients
	cfg.VolSize, cfg.LogSize, cfg.ChunkSize = sc.volSize, sc.logSize, sc.chunk
	cfg.InodesPerVol, cfg.InoRangePerClient = sc.inodes, sc.inoRange
	cfg.Compress = compress
	cl, err := core.NewCluster(env, cfg)
	if err != nil {
		return nil, err
	}
	cl.Start()
	s.lf, s.machines, s.vols, s.fabric, s.spec = cl, cl.Machines, cl.Vols, cl.Fabric, cfg.Spec
	return s, nil
}

func (s *system) attach(p *sim.Proc) (*dfs.Client, error) {
	if s.lf != nil {
		a, err := s.lf.Attach(p, 0)
		if err != nil {
			return nil, err
		}
		return a.Client, nil
	}
	a, err := s.as.Attach(p, 0)
	if err != nil {
		return nil, err
	}
	return a.Client, nil
}

// stages are the NICFS stage timers read from the primary, and the
// per-layer metric each one is reported as.
var stages = [...]struct{ timer, metric string }{
	{"fetch", "core.stage_fetch_us"},
	{"validate", "core.stage_validate_us"},
	{"publish", "core.stage_publish_us"},
	{"transfer", "core.stage_transfer_us"},
	{"ack", "core.stage_ack_us"},
	{"wait-pub", "core.wait_pub_us"},
	{"wait-rep", "core.wait_rep_us"},
}

// counters is a snapshot of every exported counter the per-layer metrics
// are derived from. Deltas between two snapshots cover one phase.
type counters struct {
	now    sim.Time
	events uint64

	hostBusy, nicBusy [nodes]time.Duration
	pmLink            int64 // sum of PM.Link().Bytes
	pcie, fetch       int64
	wire              int64 // Fabric.Total
	tx0               int64 // node 0 port egress

	rpcTimeouts, rpcRetries int64

	pub, rep, repWire, coalesced int64
	repMsgs, repChunks, ackMsgs  int64
	staleAcks                    int64
	stageTotal                   [len(stages)]time.Duration
	stageN                       [len(stages)]int64
	digested                     int64
	published                    [nodes]int64 // per-node progress, for drain detection
}

func (s *system) snapshot() counters {
	c := counters{now: s.env.Now(), events: s.env.TracedEvents(), wire: s.fabric.Total.Total()}
	for i, m := range s.machines {
		c.hostBusy[i] = m.HostCPU.Util.TotalBusy()
		c.nicBusy[i] = m.NICCPU.Util.TotalBusy()
		c.pmLink += m.PM.Link().Bytes.Total()
		c.pcie += m.PCIe.Bytes.Total()
		c.fetch += m.Fetch.Bytes.Total()
	}
	c.tx0 = s.machines[0].Port.TX.Bytes.Total()
	if s.lf != nil {
		c.rpcTimeouts, c.rpcRetries = s.lf.Robust.RPCTimeouts, s.lf.Robust.RPCRetries
		for i, n := range s.lf.NICs {
			c.pub += n.PubBytes
			c.rep += n.RepBytes
			c.repWire += n.RepWireBytes
			c.coalesced += n.CoalescedBytes
			c.repMsgs += n.RepMsgs
			c.repChunks += n.RepChunksSent
			c.ackMsgs += n.AckMsgs
			c.staleAcks += n.StaleAcks
			c.published[i] = n.PubBytes
		}
		for i, st := range stages {
			if ta := s.lf.NICs[0].StageTimes[st.timer]; ta != nil {
				c.stageTotal[i], c.stageN[i] = ta.Total, ta.N
			}
		}
		return c
	}
	for i, sh := range s.as.Shared {
		c.digested += sh.DigestedBytes
		c.published[i] = sh.DigestedBytes
	}
	return c
}
