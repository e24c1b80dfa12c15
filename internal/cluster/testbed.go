package cluster

import (
	"fmt"
	"time"

	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/node"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// Layout is what every evaluated system has in common (§5.1: LineFS is
// built on Assise's code base, so machines, PM layout, log format and chain
// topology are shared and only the daemon differs). core.Config and
// assise.Config embed it and add what is their own.
type Layout struct {
	Spec  node.Spec
	Nodes int
	// Replicas is the chain length beyond the primary (default 2: three
	// copies, as in the paper's 3-node testbed).
	Replicas int

	// MaxClients bounds concurrently attached LibFS instances; it sizes
	// the per-client PM log slots.
	MaxClients int
	// VolSize is the public PM area per node; LogSize the per-client log
	// (the paper configures 512 MB logs; experiments here default smaller
	// to keep simulations light — throughput is steady-state either way).
	VolSize int64
	LogSize int64
	// ChunkSize is the pipeline and replication unit (4 MB in the paper).
	ChunkSize int

	// DFSPrio is the scheduling priority of host-side DFS work (kernel
	// worker, SharedFS, LibFS service) relative to applications (0 = equal).
	DFSPrio int

	// HeartbeatEvery paces the cluster manager and the NICFS->kernel
	// worker failure detector.
	HeartbeatEvery time.Duration

	// InodesPerVol sizes each node's inode table; InoRangePerClient is the
	// private inode number range handed to each LibFS at attach.
	InodesPerVol      int
	InoRangePerClient int
}

// DefaultLayout returns the paper's testbed at simulation-friendly log
// sizes.
func DefaultLayout() Layout {
	return Layout{
		Spec:              node.DefaultSpec(),
		Nodes:             3,
		Replicas:          2,
		MaxClients:        8,
		VolSize:           1 << 30,
		LogSize:           64 << 20,
		ChunkSize:         4 << 20,
		HeartbeatEvery:    time.Second,
		InodesPerVol:      65536,
		InoRangePerClient: 4096,
	}
}

// LeaseTTL is the lease lifetime, on every lease table and in every LibFS.
const LeaseTTL = time.Second

// hostStoreAmp is the memory-system amplification of host CPU stores into
// PM (cacheline RMW, write-combining misses, cache pollution).
const hostStoreAmp = 4

// Testbed is the part of a deployment that does not depend on which DFS
// runs on it: the machines on their fabric, a formatted public volume on
// each, the cluster manager, and the table of client log slots. core.Cluster
// and assise.Cluster embed it and add their daemons.
type Testbed struct {
	Env    *sim.Env
	Fabric *rdma.Fabric

	Machines []*node.Machine
	Vols     []*fs.Vol
	Mgr      *Manager

	layout  Layout
	slots   []int // machine of each attached client, by slot
	started bool
}

// NewTestbed builds the machines, their PMs on one page store, and formats
// their volumes.
func NewTestbed(env *sim.Env, l Layout) (*Testbed, error) {
	if l.Replicas >= l.Nodes {
		return nil, fmt.Errorf("cluster: %d replicas need more than %d nodes", l.Replicas, l.Nodes)
	}
	need := l.VolSize + int64(l.MaxClients)*l.LogSize
	if need > l.Spec.PMSize {
		return nil, fmt.Errorf("cluster: PM too small: need %d, have %d", need, l.Spec.PMSize)
	}
	tb := &Testbed{
		Env:    env,
		Fabric: node.NewFabric(env, l.Spec),
		Mgr:    NewManager(env, l.HeartbeatEvery),
		layout: l,
	}
	store := new(hw.PageStore)
	for i := 0; i < l.Nodes; i++ {
		m := node.NewMachine(env, tb.Fabric, store, fmt.Sprintf("node%d", i), l.Spec)
		v, err := fs.Format(env, m.PM, 0, l.VolSize, l.InodesPerVol)
		if err != nil {
			return nil, err
		}
		tb.Machines = append(tb.Machines, m)
		tb.Vols = append(tb.Vols, v)
	}
	return tb, nil
}

// Begin marks the testbed started; it reports false when it already was, so
// a second Start launches nothing twice.
func (tb *Testbed) Begin() bool {
	was := tb.started
	tb.started = true
	return !was
}

// NewSlot gives the next client its log slot and records which machine it
// attaches on (the primary of its chain).
func (tb *Testbed) NewSlot(machine int) (int, error) {
	if !tb.started {
		return 0, fmt.Errorf("cluster: not started")
	}
	if len(tb.slots) >= tb.layout.MaxClients {
		return 0, fmt.Errorf("cluster: client slots exhausted (%d)", tb.layout.MaxClients)
	}
	tb.slots = append(tb.slots, machine)
	return len(tb.slots) - 1, nil
}

// SlotMachine returns the machine slot's client attached on; ok is false
// for a slot nobody has attached to.
func (tb *Testbed) SlotMachine(slot int) (machine int, ok bool) {
	if slot < 0 || slot >= len(tb.slots) {
		return 0, false
	}
	return tb.slots[slot], true
}

// Chain returns the machine indices of a replication chain, primary first.
func (tb *Testbed) Chain(primary int) []int {
	out := make([]int, 0, tb.layout.Replicas+1)
	for i := 0; i <= tb.layout.Replicas; i++ {
		out = append(out, (primary+i)%tb.layout.Nodes)
	}
	return out
}

// LogBase returns the PM offset of a slot's log area (identical on every
// machine in the chain).
func (tb *Testbed) LogBase(slot int) int64 {
	return tb.layout.VolSize + int64(slot)*tb.layout.LogSize
}

// InoRange returns the private inode number range of a slot's client, cut
// at the end of the inode table: past it, Create reports the range exhausted.
func (tb *Testbed) InoRange(slot int) (base fs.Ino, count int) {
	start := 16 + slot*tb.layout.InoRangePerClient
	return fs.Ino(start), max(0, min(tb.layout.InoRangePerClient, tb.layout.InodesPerVol-start))
}

// HostCtx builds an fs.Ctx for a host-core actor on machine i.
func (tb *Testbed) HostCtx(p *sim.Proc, i int, tag string) fs.Ctx {
	m := tb.Machines[i]
	return fs.Ctx{P: p, PM: m.PM, CPU: m.HostCPU, Prio: tb.layout.DFSPrio, Tag: tag, MemAmp: hostStoreAmp}
}

// LibFS fills in the client library's configuration for slot's client on
// machine: everything but the log area and the inode range, which the
// node's daemon hands out at attach.
func (tb *Testbed) LibFS(machine, slot int) dfs.Config {
	m := tb.Machines[machine]
	return dfs.Config{
		ID:  fmt.Sprintf("%s/c%d", m.Name, slot),
		Vol: tb.Vols[machine],
		HostCtx: func(p *sim.Proc) fs.Ctx {
			return tb.HostCtx(p, machine, "dfs")
		},
		Syscall: func(p *sim.Proc) {
			m.HostCPU.Compute(p, tb.layout.Spec.SyscallCost, tb.layout.DFSPrio, "dfs")
		},
		ChunkSize: tb.layout.ChunkSize,
		LeaseTTL:  LeaseTTL,
	}
}
