package core

import (
	"sort"

	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// This file implements the §3.5/§3.6 availability machinery above the
// failure detector: host crash orchestration, and epoch-based NICFS
// recovery using the replicated history bitmap.

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

// handleHistory serves a recovering peer the namespace history recorded
// since the given epoch (the replicated history bitmap of §3.6).
func (n *NICFS) handleHistory(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*historyReq)
	var out []touched
	var epochs []uint64
	for ep := range n.history {
		if ep >= req.Since {
			epochs = append(epochs, ep)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, ep := range epochs {
		out = append(out, n.history[ep]...)
	}
	msg.Respond(p, &historyResp{Epoch: n.epoch, Touched: out}, 32+len(out)*24)
}

// handleFetchFile serves a recovering peer one published file's content.
func (n *NICFS) handleFetchFile(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*fetchFileReq)
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	in, err := n.vol.ReadInode(ctx, req.Ino)
	if err != nil {
		msg.Respond(p, &fetchFileResp{Exists: false}, 16)
		return
	}
	resp := &fetchFileResp{Exists: true, Type: in.Type, Size: in.Size}
	if in.Type == fs.TypeFile && in.Size > 0 {
		resp.Data = make([]byte, in.Size)
		if _, err := n.vol.ReadFile(ctx, req.Ino, 0, resp.Data); err != nil {
			msg.RespondErr(p, err)
			return
		}
	}
	msg.Respond(p, resp, 32+len(resp.Data))
}

// Recover re-synchronizes this NICFS with the cluster after it restarts
// (§3.6): read the persisted epoch, pull the history bitmap from a live
// peer, fetch every inode touched since, and reapply it locally.
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
	// Deduplicate inodes, newest record last so deletions win.
	type nsRec struct {
		t    touched
		gone bool
	}
	latest := make(map[fs.Ino]nsRec)
	var order []fs.Ino
	for _, t := range hist.Touched {
		if _, ok := latest[t.Ino]; !ok {
			order = append(order, t.Ino)
		}
		rec := latest[t.Ino]
		rec.gone = t.Gone
		if t.Name != "" || t.Gone {
			rec.t = t
		} else if rec.t.Ino == 0 {
			rec.t = t
		}
		latest[t.Ino] = rec
	}

	for _, ino := range order {
		rec := latest[ino]
		if rec.gone {
			// Deleted while we were down: drop any local version.
			if ent := n.findLocalName(ctx, ino); ent != "" {
				_ = n.vol.ApplyEntry(ctx, &fs.Entry{Type: fs.OpUnlink, Ino: ino, PIno: rec.t.PIno, Name: ent}, nil)
			}
			continue
		}
		fv, err := peer.Call(p, "fetch-file", &fetchFileReq{Ino: ino}, 16)
		if err != nil {
			return err
		}
		ff := fv.(*fetchFileResp)
		if !ff.Exists {
			continue
		}
		if rec.t.Name != "" && rec.t.PIno != 0 {
			typ := ff.Type
			ce := &fs.Entry{Type: fs.OpCreate, Ino: ino, PIno: rec.t.PIno, Name: rec.t.Name}
			if typ == fs.TypeDir {
				ce.Type = fs.OpMkdir
			}
			_ = n.vol.ApplyEntry(ctx, ce, nil)
		} else if err := n.vol.CreateInode(ctx, ino, ff.Type); err != nil {
			continue
		}
		if ff.Type == fs.TypeFile {
			_ = n.vol.Truncate(ctx, ino, 0)
			if len(ff.Data) > 0 {
				_ = n.vol.PublishWrite(ctx, ino, 0, ff.Data, nil)
			}
		}
	}
	return nil
}

// findLocalName locates the directory entry for an inode (recovery of
// deletions); empty if absent.
func (n *NICFS) findLocalName(ctx *fs.Ctx, ino fs.Ino) string {
	ents, err := n.vol.DirList(ctx, fs.RootIno)
	if err != nil {
		return ""
	}
	for _, e := range ents {
		if e.Ino == ino {
			return e.Name
		}
	}
	return ""
}
