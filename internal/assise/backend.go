package assise

import (
	"time"

	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/sim"
)

// backend wires a dfs.Client to the host-local SharedFS: leases and open
// checks are cheap local calls; replication runs in the client's own thread
// (pessimistic), in background host threads (BgRepl), or through the
// Hyperloop NIC offload.
type backend struct {
	cl      *Cluster
	machine int
	slot    int
	id      string

	shared *SharedFS
	ss     *slotState
	client *dfs.Client
}

func newBackend(cl *Cluster, machine, slot int) *Attachment {
	s := cl.Shared[machine]
	cfg := cl.LibFS(machine, slot)
	cfg.Log = fs.NewLogArea(cl.Machines[machine].PM, cl.LogBase(slot), cl.Cfg.LogSize)
	cfg.InoBase, cfg.InoMax = cl.InoRange(slot)
	b := &backend{cl: cl, machine: machine, slot: slot, id: cfg.ID, shared: s}
	b.client = dfs.NewClient(cl.Env, b, cfg)
	b.ss = s.register(slot, b.client, cfg.Log)
	return &Attachment{Client: b.client, backend: b}
}

// ipc charges the cost of a LibFS<->SharedFS shared-memory call.
func (b *backend) ipc(p *sim.Proc) {
	b.cl.Machines[b.machine].HostCPU.Compute(p, time.Microsecond, b.cl.Cfg.DFSPrio, "dfs")
}

// AcquireLease implements dfs.Backend: local SharedFS arbitration.
func (b *backend) AcquireLease(p *sim.Proc, ino fs.Ino, mode lease.Mode) (bool, error) {
	b.ipc(p)
	ok, conflicts := b.shared.leases.Acquire(ino, b.id, mode)
	if !ok {
		for _, holder := range conflicts {
			for _, a := range b.cl.clients {
				if a != nil && a.backend.id == holder {
					a.Client.OnRevoke(ino)
					b.shared.leases.Revoke(ino, holder)
				}
			}
		}
	}
	return ok, nil
}

// OpenCheck implements dfs.Backend: a local permission check.
func (b *backend) OpenCheck(p *sim.Proc, pth string) error {
	b.ipc(p)
	ctx := b.cl.HostCtx(p, b.machine, "dfs")
	_, err := b.cl.Vols[b.machine].Resolve(ctx, pth)
	return err
}

// ChunkReady implements dfs.Backend. In pessimistic mode replication of the
// accumulated chunk happens right here, in the calling thread's context —
// the behaviour that couples Assise's write throughput to client thread
// count (§5.2.1). Assise replicates at notification granularity, so the
// doorbell-coalescing marks are ignored.
func (b *backend) ChunkReady(p *sim.Proc, head uint64, _ []uint64) {
	ss := b.ss
	switch b.cl.Cfg.Mode {
	case BgRepl:
		b.shared.queueBg(p, ss, head)
	default: // Pessimistic, Hyperloop
		from := ss.repQueued
		if head > from {
			ss.repQueued = head
			_ = b.shared.replicateRange(p, ss, from, head)
		}
	}
	ss.kick(b.cl.Env)
}

// Fsync implements dfs.Backend. The range replicates in the calling thread's
// context, one transfer: there is no pipeline for pieces to overlap in.
func (b *backend) Fsync(p *sim.Proc, head uint64, _ []uint64) error {
	b.ipc(p)
	if err := b.shared.fsyncSlot(p, b.ss, head); err != nil {
		return err
	}
	b.ss.kick(b.cl.Env)
	return nil
}
