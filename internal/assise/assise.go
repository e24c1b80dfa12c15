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
	"time"

	"linefs/internal/cluster"
	"linefs/internal/dfs"
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

// Config parameterizes an Assise cluster: the shared testbed layout plus what
// only SharedFS has.
type Config struct {
	cluster.Layout

	Mode Mode
}

// DefaultConfig mirrors the paper's Assise setup on the default layout.
func DefaultConfig() Config {
	return Config{Layout: cluster.DefaultLayout(), Mode: Pessimistic}
}

// Assise+Hyperloop's WQE window: hyperloopCredits operations are served per
// re-post, and hyperloopPost is the host work to re-post a chain.
const (
	hyperloopCredits = 1000
	hyperloopPost    = 4 * time.Millisecond
)

// bgThreads is the background replication pool of each SharedFS (BgRepl
// mode; the paper uses 3).
const bgThreads = 3

// Cluster is a running Assise deployment: the shared testbed plus a SharedFS
// daemon on every machine.
type Cluster struct {
	*cluster.Testbed
	Cfg Config

	Shared []*SharedFS

	clients []*Attachment // by slot
}

// NewCluster builds and formats an Assise cluster.
func NewCluster(env *sim.Env, cfg Config) (*Cluster, error) {
	tb, err := cluster.NewTestbed(env, cfg.Layout)
	if err != nil {
		return nil, err
	}
	return &Cluster{Testbed: tb, Cfg: cfg, clients: make([]*Attachment, cfg.MaxClients)}, nil
}

// Start launches the per-node SharedFS daemons.
func (cl *Cluster) Start() {
	if !cl.Begin() {
		return
	}
	for i := range cl.Machines {
		cl.Shared = append(cl.Shared, newSharedFS(cl, i))
	}
	for _, s := range cl.Shared {
		s.Start()
	}
	cl.Mgr.Start()
}

// Attachment is one attached Assise client.
type Attachment struct {
	*dfs.Client
	backend *backend
}

// Attach creates a client process handle on the given machine.
func (cl *Cluster) Attach(p *sim.Proc, machine int) (*Attachment, error) {
	slot, err := cl.NewSlot(machine)
	if err != nil {
		return nil, err
	}
	a := newBackend(cl, machine, slot)
	cl.clients[slot] = a
	return a, nil
}
