package core

import (
	"fmt"
	"time"

	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// linefsBackend connects a dfs.Client to its node's NICFS: leases, open
// checks and fsync ride the low-latency connection class; chunk-ready
// notifications ride the bulk class. Reclaim and revoke notifications from
// NICFS arrive on a host-side service process and are relayed to the
// client.
type linefsBackend struct {
	cl      *Cluster
	machine int
	slot    int
	id      string

	lowConn  *rdma.Conn
	bulkConn *rdma.Conn
	svcQ     *sim.Queue[*rdma.Msg]
	svcProc  *sim.Proc

	client *dfs.Client
	dead   bool
}

// Attachment is one attached LineFS client: the generic client library plus
// its node binding.
type Attachment struct {
	*dfs.Client
	backend *linefsBackend
	machine int
}

// Detach closes the client (host process exit).
func (a *Attachment) Detach() { a.backend.close() }

// newAttachment attaches a client process on machine to NICFS slot.
func newAttachment(p *sim.Proc, cl *Cluster, machine, slot int) (*Attachment, error) {
	m := cl.Machines[machine]
	cfg := cl.LibFS(machine, slot)
	b := &linefsBackend{cl: cl, machine: machine, slot: slot, id: cfg.ID}
	b.lowConn = rdma.Dial(m.HostPort, m.NICPort, svcLow, true)
	b.bulkConn = rdma.Dial(m.HostPort, m.NICPort, svcBulk, false)

	v, err := b.call(p, "attach", &attachReq{Client: b.id, Slot: slot}, 64, rpcDeadline, nil)
	if err != nil {
		return nil, err
	}
	resp := v.(*attachResp)

	// NICFS admitted the client: it owns the log area and hands out the
	// inode range.
	cfg.Log = cl.NICs[machine].clients[slot].log
	cfg.InoBase, cfg.InoMax = resp.InoBase, resp.InoCount
	cfg.NotifyChunks = cl.Cfg.NotifyChunks
	client := dfs.NewClient(cl.Env, b, cfg)
	b.client = client

	b.svcQ = sim.NewQueue[*rdma.Msg](cl.Env, 0)
	m.HostPort.Register(clientService(slot), b.svcQ)
	b.svcProc = cl.Env.Go(b.id+"/svc", b.runService)

	return &Attachment{Client: client, backend: b, machine: machine}, nil
}

// runService relays NICFS notifications to the client library.
func (b *linefsBackend) runService(p *sim.Proc) {
	for {
		msg, ok := b.svcQ.Get(p)
		if !ok {
			return
		}
		switch msg.Op {
		case "reclaim":
			rm := msg.Arg.(*reclaimMsg)
			b.client.OnReclaim(p, rm.UpTo)
		case "revoke":
			rv := msg.Arg.(*revokeMsg)
			b.client.OnRevoke(rv.Ino)
		}
	}
}

func (b *linefsBackend) close() {
	if b.dead {
		return
	}
	b.dead = true
	b.cl.Machines[b.machine].HostPort.Unregister(clientService(b.slot))
	b.svcQ.Close()
	if b.svcProc != nil {
		b.svcProc.Kill()
	}
}

// call issues a control RPC on the low-latency class. Each attempt waits d
// (and d again, on the same call, while alive reports progress), then is
// abandoned and retried with d doubled: control RPCs are idempotent (attach
// re-answers the same admission, lease acquisition and open checks are pure
// reads or re-grants, fsync re-waits on a watermark), so a lost request or
// response costs one timeout, not a wedged client, and a NICFS that is gone
// surfaces as an error on the first retry.
func (b *linefsBackend) call(p *sim.Proc, op string, arg any, size int, d time.Duration, alive func() bool) (any, error) {
	const maxAttempts = 12
	for attempt := 1; ; attempt++ {
		v, err, replied := b.lowConn.CallTimeout(p, op, arg, size, d, alive, nil)
		if replied {
			return v, err
		}
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("core: %s RPC: no response after %d attempts", op, attempt)
		}
		b.cl.Robust.RPCRetries++
		d *= 2
	}
}

// AcquireLease implements dfs.Backend.
func (b *linefsBackend) AcquireLease(p *sim.Proc, ino fs.Ino, mode lease.Mode) (bool, error) {
	v, err := b.call(p, "lease-acquire",
		&leaseReq{Client: b.id, Ino: ino, Mode: mode}, 24, rpcDeadline, nil)
	if err != nil {
		return false, err
	}
	return v.(*leaseResp).OK, nil
}

// OpenCheck implements dfs.Backend.
func (b *linefsBackend) OpenCheck(p *sim.Proc, pth string) error {
	_, err := b.call(p, "open", &openReq{Client: b.id, Path: pth}, 64, rpcDeadline, nil)
	return err
}

// ChunkReady implements dfs.Backend. The marks slice is reused by the
// client library, so it is copied into the queued message.
func (b *linefsBackend) ChunkReady(p *sim.Proc, head uint64, marks []uint64) {
	msg := &chunkReady{Slot: b.slot, Head: head}
	if len(marks) > 0 {
		msg.Marks = append([]uint64(nil), marks...)
	}
	_ = b.bulkConn.Send(p, "chunk-ready", msg, 24+8*len(marks))
}

// Fsync implements dfs.Backend. An fsync takes as long as the log it flushes,
// so its deadline is keyed to progress, not elapsed time: the call stays out
// while every standstill finds the log's tail moved since the last (reclaim
// notifications arrive on the service process meanwhile); only a slot that
// stands still is timed out, counted and asked again. The cuts are copied (a
// request outlives a timed-out call), which costs nothing when there are none.
func (b *linefsBackend) Fsync(p *sim.Proc, head uint64, cuts []uint64) error {
	tail := b.client.Log().Tail()
	moved := func() bool {
		was := tail
		tail = b.client.Log().Tail()
		return tail > was
	}
	req := &fsyncReq{Slot: b.slot, Head: head, Cuts: append([]uint64(nil), cuts...)}
	_, err := b.call(p, "fsync", req, 24+8*len(cuts), standstill, moved)
	return err
}
