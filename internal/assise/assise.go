// Package assise implements the Assise baseline (OSDI '20) the paper
// evaluates LineFS against: a client-local PM DFS whose per-node SharedFS
// daemon runs on *host* cores. It shares the LibFS client library, PM
// layout, operational log format and chain-replication topology with
// LineFS; the difference is where the work runs:
//
//   - digestion (publication) of client logs is performed by SharedFS
//     threads on host cores;
//   - replication is performed synchronously in the calling client thread
//     on fsync (pessimistic mode), by background host threads
//     (Assise-BgRepl), or offloaded to the RDMA NIC in the Hyperloop
//     adaptation (Assise+Hyperloop) where remote host CPUs stay off the
//     data path but must periodically re-post WQEs;
//   - lease arbitration and open checks are cheap local SharedFS calls.
//
// All of this consumes client-node CPU — the interference LineFS exists to
// remove.
package assise

import (
	"fmt"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/node"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// Mode selects the replication strategy.
type Mode uint8

// Replication modes.
const (
	// Pessimistic replicates synchronously in the caller's thread context
	// whenever a chunk accumulates and on fsync (vanilla Assise).
	Pessimistic Mode = iota
	// BgRepl adds background replication threads ahead of fsync.
	BgRepl
	// Hyperloop offloads chain replication to the RDMA NICs; remote host
	// CPUs only re-post WQE chains periodically.
	Hyperloop
)

func (m Mode) String() string {
	switch m {
	case Pessimistic:
		return "Assise"
	case BgRepl:
		return "Assise-BgRepl"
	case Hyperloop:
		return "Assise+Hyperloop"
	}
	return "unknown"
}

// Config parameterizes an Assise cluster.
type Config struct {
	Spec     node.Spec
	Nodes    int
	Replicas int

	MaxClients int
	VolSize    int64
	LogSize    int64
	// ChunkSize is the replication unit (4 MB, matching LineFS).
	ChunkSize int

	Mode Mode
	// BgThreads caps cluster-wide background replication concurrency
	// (the paper uses 3).
	BgThreads int

	LeaseTTL time.Duration
	DFSPrio  int

	InodesPerVol      int
	InoRangePerClient int

	// HyperloopCredits is the number of operations served per WQE re-post;
	// HyperloopPostCost the host work to re-post a chain.
	HyperloopCredits int
	HyperloopPost    time.Duration

	HeartbeatEvery time.Duration
}

// DefaultConfig mirrors the paper's Assise setup at simulation scale.
func DefaultConfig() Config {
	return Config{
		Spec:              node.DefaultSpec(),
		Nodes:             3,
		Replicas:          2,
		MaxClients:        8,
		VolSize:           1 << 30,
		LogSize:           64 << 20,
		ChunkSize:         4 << 20,
		Mode:              Pessimistic,
		BgThreads:         3,
		LeaseTTL:          time.Second,
		InodesPerVol:      65536,
		InoRangePerClient: 4096,
		HyperloopCredits:  1000,
		HyperloopPost:     4 * time.Millisecond,
		HeartbeatEvery:    time.Second,
	}
}

// Cluster is a running Assise deployment.
type Cluster struct {
	Env    *sim.Env
	Cfg    Config
	Fabric *rdma.Fabric

	Machines []*node.Machine
	Vols     []*fs.Vol
	Shared   []*SharedFS
	Mgr      *cluster.Manager

	clients []*Attachment
	nAttach int
	started bool
}

// NewCluster builds and formats an Assise cluster.
func NewCluster(env *sim.Env, cfg Config) (*Cluster, error) {
	if cfg.Replicas >= cfg.Nodes {
		return nil, fmt.Errorf("assise: %d replicas need more than %d nodes", cfg.Replicas, cfg.Nodes)
	}
	need := cfg.VolSize + int64(cfg.MaxClients)*cfg.LogSize
	if need > cfg.Spec.PMSize {
		return nil, fmt.Errorf("assise: PM too small: need %d, have %d", need, cfg.Spec.PMSize)
	}
	cl := &Cluster{
		Env:     env,
		Cfg:     cfg,
		Fabric:  node.NewFabric(env, cfg.Spec),
		clients: make([]*Attachment, cfg.MaxClients),
	}
	for i := 0; i < cfg.Nodes; i++ {
		m := node.NewMachine(env, cl.Fabric, fmt.Sprintf("node%d", i), cfg.Spec)
		v, err := fs.Format(env, m.PM, 0, cfg.VolSize, cfg.InodesPerVol)
		if err != nil {
			return nil, err
		}
		cl.Machines = append(cl.Machines, m)
		cl.Vols = append(cl.Vols, v)
		// Remote log slots are written with one-sided RDMA into host PM
		// (Assise's replication path and Hyperloop's NIC-driven writes).
		m.Port.RegisterRegion("pm", &rdma.PMRegion{PM: m.PM, Base: 0, Len: cfg.Spec.PMSize, Persist: true})
	}
	cl.Mgr = cluster.NewManager(env, cfg.HeartbeatEvery)
	return cl, nil
}

// Start launches the per-node SharedFS daemons.
func (cl *Cluster) Start() {
	if cl.started {
		return
	}
	cl.started = true
	for i := range cl.Machines {
		cl.Shared = append(cl.Shared, newSharedFS(cl, i))
	}
	for _, s := range cl.Shared {
		s.Start()
	}
	cl.Mgr.Start()
}

// chain returns the machine indices of a slot's replication chain.
func (cl *Cluster) chain(primary int) []int {
	out := make([]int, 0, cl.Cfg.Replicas+1)
	for i := 0; i <= cl.Cfg.Replicas; i++ {
		out = append(out, (primary+i)%cl.Cfg.Nodes)
	}
	return out
}

func (cl *Cluster) logBase(slot int) int64 {
	return cl.Cfg.VolSize + int64(slot)*cl.Cfg.LogSize
}

func (cl *Cluster) hostCtx(p *sim.Proc, i int, tag string) *fs.Ctx {
	m := cl.Machines[i]
	return &fs.Ctx{P: p, PM: m.PM, CPU: m.HostCPU, Prio: cl.Cfg.DFSPrio, Tag: tag, MemAmp: 4}
}

// Attachment is one attached Assise client.
type Attachment struct {
	*dfs.Client
	backend *backend
}

// Attach creates a client process handle on the given machine.
func (cl *Cluster) Attach(p *sim.Proc, machine int) (*Attachment, error) {
	if !cl.started {
		return nil, fmt.Errorf("assise: cluster not started")
	}
	if cl.nAttach >= cl.Cfg.MaxClients {
		return nil, fmt.Errorf("assise: client slots exhausted")
	}
	slot := cl.nAttach
	cl.nAttach++
	a, err := newBackend(p, cl, machine, slot)
	if err != nil {
		return nil, err
	}
	cl.clients[slot] = a
	return a, nil
}

// RunFor advances the simulation.
func (cl *Cluster) RunFor(d time.Duration) { cl.Env.RunFor(d) }
