package core

import (
	"fmt"
	"slices"

	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// This file implements the §3.5/§3.6 availability machinery above the
// failure detector: host crash orchestration, and epoch-based NICFS
// recovery from a peer's history bitmap.

// CrashHost fails machine i's host OS: the kernel worker and all LibFS
// client processes die, unpersisted PM state is lost. The SmartNIC keeps
// running; its failure detector will flip NICFS into isolated operation.
func (cl *Cluster) CrashHost(i int) {
	m := cl.Machines[i]
	if !m.HostUp {
		return
	}
	cl.KWs[i].Crash()
	for _, c := range cl.clients {
		if c != nil && c.machine == i {
			c.Detach()
		}
	}
	m.CrashHost()
}

// RecoverHost reboots machine i's host OS: the stateless kernel worker
// re-registers and NICFS resumes submitting copy requests to it.
func (cl *Cluster) RecoverHost(i int) {
	m := cl.Machines[i]
	if m.HostUp {
		return
	}
	m.RecoverHost()
	cl.KWs[i].Restart()
}

// handleHistory serves a recovering peer §3.6's history bitmap: the union
// of the inode sets this node recorded since the given epoch, ascending.
func (n *NICFS) handleHistory(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*historyReq)
	var inos []fs.Ino
	for ep, set := range n.history {
		if ep >= req.Since {
			for ino := range set {
				inos = append(inos, ino)
			}
		}
	}
	slices.Sort(inos)
	inos = slices.Compact(inos)
	msg.Respond(p, &historyResp{Epoch: n.epoch, Inos: inos}, 32+4*len(inos))
}

// handleFetchFile serves a recovering peer one published inode: a file's
// bytes or a directory's entries.
func (n *NICFS) handleFetchFile(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*fetchFileReq)
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	in, err := n.vol.ReadInode(&ctx, req.Ino)
	if err != nil {
		msg.Respond(p, &fetchFileResp{}, 16)
		return
	}
	resp := &fetchFileResp{Exists: true, Type: in.Type}
	switch {
	case in.Type == fs.TypeDir:
		resp.Entries, err = n.vol.DirList(&ctx, req.Ino)
	case in.Size > 0:
		resp.Data = make([]byte, in.Size)
		_, err = n.vol.ReadFile(&ctx, req.Ino, 0, resp.Data)
	}
	if err != nil {
		msg.RespondErr(p, err)
		return
	}
	msg.Respond(p, resp, 32+len(resp.Data)+fs.DirEntSize*len(resp.Entries))
}

// Recover re-synchronizes this NICFS with the cluster after it restarts
// (§3.6): read the persisted epoch, pull the history bitmap from a live
// peer, and make every inode it names what the peer holds.
func (n *NICFS) Recover(p *sim.Proc, peerMachine int) error {
	m := n.cl.Machines[n.machine]

	// Re-register services and restart processes. Crash closed every lane's
	// queue, and a closed queue drops every Put, so Start begins with no
	// lanes — peers' cached connections resolve the service by name on every
	// send and get fresh ones. Dead mirrors are dropped; a new one starts
	// where its first frame says the sender's window stands.
	n.down = false
	n.mirrors = make(map[int]*mirrorState)
	n.Start()

	// Read the persisted epoch from PM.
	buf := make([]byte, 8)
	m.PCIe.Transfer(p, len(buf), 0)
	m.PM.Read(p, epochPMOff, buf)
	persisted := uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16 | uint64(buf[3])<<24

	// Ask from one epoch before the persisted one: the bump for this node's
	// own failure reaches its PM before recovery runs, but chunks that were
	// acked yet still unpublished at crash time were recorded by the
	// survivors under the pre-crash epoch. History pruning retains two
	// previous epochs for exactly this window.
	since := persisted
	if since > 0 {
		since--
	}

	peer := n.peer(peerMachine, false)
	v, err := peer.Call(p, "history", &historyReq{Since: since}, 16)
	if err != nil {
		return err
	}
	hist := v.(*historyResp)
	n.epoch = hist.Epoch

	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	for _, ino := range hist.Inos {
		fv, err := peer.Call(p, "fetch-file", &fetchFileReq{Ino: ino}, 16)
		if err == nil {
			err = n.copyInode(&ctx, ino, fv.(*fetchFileResp))
		}
		if err != nil {
			return fmt.Errorf("core: recover inode %d: %w", ino, err)
		}
	}
	return nil
}

// copyInode makes inode ino here what the peer holds, ff.
func (n *NICFS) copyInode(ctx *fs.Ctx, ino fs.Ino, ff *fetchFileResp) error {
	if err := n.placeInode(ctx, ino, ff); err != nil || !ff.Exists || ff.Type == fs.TypeDir {
		return err
	}
	if err := n.vol.Truncate(ctx, ino, 0); err != nil || len(ff.Data) == 0 {
		return err
	}
	return n.vol.PublishWrite(ctx, ino, 0, ff.Data, nil)
}

// placeInode, under the volume lock, frees ino if the peer has none or it
// has another type here, creates it with the peer's type, and replaces a
// directory's entries with the peer's.
func (n *NICFS) placeInode(ctx *fs.Ctx, ino fs.Ino, ff *fetchFileResp) error {
	v := n.vol
	v.Lock(ctx.P, ctx.Prio)
	defer v.Unlock(ctx.P)
	if in, err := v.ReadInode(ctx, ino); err == nil && (!ff.Exists || in.Type != ff.Type) {
		if err := v.FreeInode(ctx, ino); err != nil {
			return err
		}
	}
	if !ff.Exists {
		return nil
	}
	if err := v.CreateInode(ctx, ino, ff.Type); err != nil || ff.Type != fs.TypeDir {
		return err
	}
	have, err := v.DirList(ctx, ino)
	if err != nil {
		return err
	}
	add := make(map[fs.DirEnt]bool, len(ff.Entries))
	for _, e := range ff.Entries {
		add[e] = true
	}
	for _, e := range have {
		if add[e] {
			delete(add, e) // already here
		} else if err := v.DirRemove(ctx, ino, e.Name); err != nil {
			return err
		}
	}
	for _, e := range ff.Entries {
		if add[e] {
			if err := v.DirAdd(ctx, ino, e); err != nil {
				return err
			}
		}
	}
	return nil
}
