package core

import (
	"linefs/internal/cluster"
	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
	"linefs/internal/stats"
)

// Cluster is a running LineFS deployment: the shared testbed plus a NICFS
// instance and a kernel worker on every machine.
type Cluster struct {
	*cluster.Testbed
	Cfg Config

	NICs []*NICFS
	KWs  []*KWorker

	// Robust aggregates the cluster's failure-path counters: fault-plane
	// injections (when a fault plane is installed on the fabric), retry and
	// timeout reactions, and integrity-gate rejections.
	Robust stats.Robustness

	clients []*Attachment // by slot

	// fsyncPiece is every client's dfs.Config.FsyncPiece, derived once from
	// the spec and the datapath (fsyncPieceOf).
	fsyncPiece int
}

// NewCluster builds and formats a LineFS cluster. Call Start before
// attaching clients.
func NewCluster(env *sim.Env, cfg Config) (*Cluster, error) {
	tb, err := cluster.NewTestbed(env, cfg.Layout)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{Testbed: tb, Cfg: cfg, clients: make([]*Attachment, cfg.MaxClients), fsyncPiece: fsyncPieceOf(cfg)}
	for _, m := range cl.Machines {
		// Machine-local RPC timeouts (NICFS <-> kernel worker) count too.
		m.Local.Robust = &cl.Robust
	}
	// Timed-out and late-discarded RPCs on the cluster fabric count into the
	// cluster's robustness summary even without a fault plane.
	cl.Fabric.Robust = &cl.Robust
	return cl, nil
}

// InstallFaultPlane attaches a deterministic fault plane to the cluster
// fabric, feeding its injection counters into cl.Robust, and returns it for
// rule installation. Idempotent.
func (cl *Cluster) InstallFaultPlane() *rdma.FaultPlane {
	if cl.Fabric.Faults == nil {
		cl.Fabric.Faults = rdma.NewFaultPlane(cl.Env, &cl.Robust)
	}
	return cl.Fabric.Faults
}

// Start launches NICFS, kernel workers and the cluster manager on every
// node.
func (cl *Cluster) Start() {
	if !cl.Begin() {
		return
	}
	for i := range cl.Machines {
		kw := newKWorker(cl, i)
		cl.KWs = append(cl.KWs, kw)
	}
	for i := range cl.Machines {
		n := newNICFS(cl, i)
		cl.NICs = append(cl.NICs, n)
	}
	for _, kw := range cl.KWs {
		kw.Start()
	}
	for _, n := range cl.NICs {
		n.Start()
		cl.Mgr.Join(n)
	}
	cl.Mgr.Start()
}

// Attach creates a LibFS client process handle on the given machine.
// It must be called from a simulation process.
func (cl *Cluster) Attach(p *sim.Proc, machine int) (*Attachment, error) {
	slot, err := cl.NewSlot(machine)
	if err != nil {
		return nil, err
	}
	l, err := newAttachment(p, cl, machine, slot)
	if err != nil {
		return nil, err
	}
	cl.clients[slot] = l
	return l, nil
}

// nicCtx builds an fs.Ctx for a SmartNIC actor on machine i: writes cross
// PCIe to host PM, and reads are charged as host PM reads at priority 0, not
// as hits in a NIC DRAM cache (which of the two is right: ROADMAP 5(b)).
func (cl *Cluster) nicCtx(p *sim.Proc, i int, tag string) fs.Ctx {
	m := cl.Machines[i]
	return fs.Ctx{
		P:         p,
		PM:        m.PM,
		WriteLink: m.PCIe,
		CPU:       m.NICCPU,
		Prio:      0,
		Tag:       tag,
	}
}
