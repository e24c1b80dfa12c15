package assise

import (
	"fmt"
	"slices"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// SharedFS is Assise's per-node daemon, running on host cores: it digests
// client logs into the public area, persists incoming replication traffic,
// and arbitrates leases. Under co-running applications all of this
// contends for the same CPUs (Table 1's interference).
type SharedFS struct {
	cl      *Cluster
	machine int

	leases *lease.Table

	// clients is primary-side per-slot state; mirrors replica-side.
	clients map[int]*slotState
	mirrors map[int]*mirrorState

	replQ *sim.Queue[*rdma.Msg]

	// bgQ dispatches background replication ranges (BgRepl mode).
	bgQ *sim.Queue[bgJob]

	// Hyperloop WQE credits: operations remaining before the host must
	// re-post the chained WQEs.
	hlCredits  int
	hlRefillCh *sim.Event

	// peers holds a queue pair to every machine's SharedFS, by index.
	peers []*rdma.Conn

	// DigestedBytes counts locally published bytes (primary + mirrors).
	DigestedBytes int64
}

// slotState is the primary-side bookkeeping for one local client.
type slotState struct {
	slot   int
	client *dfs.Client
	log    *fs.LogArea

	digested   uint64
	replicated uint64
	repQueued  uint64

	// digestKick wakes the digest; repKick fires as replicated advances.
	digestKick, repKick *sim.Event

	// snd is the slot's chain window: each range is queued under its end
	// offset, goes on the wire in log order, and is replicated once every
	// replica acks it.
	snd *core.ChainSender[uint64]

	// rawBuf is the digest read scratch, reused across rounds (decoded
	// entries borrow it and are dropped before the next round).
	rawBuf []byte

	// lent are the chain frames whose payloads the replicas may still read,
	// in log order; frames is the free list their buffers return to once
	// the window releases them.
	lent   []*replMsg
	frames [][]byte
}

// mirrorState is replica-side per-slot state: the slot's chain (chain[pos]
// is this machine) and its receiver, and the mirror's digestion.
type mirrorState struct {
	slot  int
	chain []int
	pos   int
	rcv   core.ChainReceiver[*replMsg]

	log        *fs.LogArea
	digested   uint64
	digestKick *sim.Event
	reclaimed  *sim.Event // fires each time the digest reclaims the ring

	// rawBuf is the digest read scratch, reused across rounds.
	rawBuf []byte
}

type bgJob struct {
	slot     int
	from, to uint64
}

const svcRepl = "assise"

func newSharedFS(cl *Cluster, machine int) *SharedFS {
	s := &SharedFS{
		cl:        cl,
		machine:   machine,
		leases:    lease.NewTable(cl.Env, cluster.LeaseTTL),
		clients:   make(map[int]*slotState),
		mirrors:   make(map[int]*mirrorState),
		replQ:     sim.NewQueue[*rdma.Msg](cl.Env, 0),
		bgQ:       sim.NewQueue[bgJob](cl.Env, 0),
		hlCredits: hyperloopCredits,
	}
	for _, m := range cl.Machines {
		s.peers = append(s.peers, rdma.Dial(cl.Machines[machine].Port, m.Port, svcRepl, false))
	}
	cl.Machines[machine].Port.Register(svcRepl, s.replQ)
	return s
}

// Start launches the daemon's processes.
func (s *SharedFS) Start() {
	env := s.cl.Env
	name := s.cl.Machines[s.machine].Name
	// Replication ingest: one SharedFS service thread persists incoming
	// chunks with CPU stores — single-thread PM store bandwidth is the
	// physical ceiling that keeps host-based replication off line rate
	// (under Hyperloop the NIC places them and no host core is charged).
	env.Go(name+"/sharedfs-repl", s.runRepl)
	// Background replication pool (BgRepl mode).
	for i := 0; i < bgThreads; i++ {
		env.Go(name+"/sharedfs-bg", s.runBg)
	}
}

func (s *SharedFS) hostCompute(p *sim.Proc, work time.Duration, tag string) {
	s.cl.Machines[s.machine].HostCPU.Compute(p, work, s.cl.Cfg.DFSPrio, tag)
}

// kick wakes whoever waits on *ev and arms a fresh event.
func (s *SharedFS) kick(ev **sim.Event) {
	(*ev).Trigger(nil)
	*ev = sim.NewEvent(s.cl.Env)
}

// register admits a local client and spawns its digestion worker.
func (s *SharedFS) register(slot int, client *dfs.Client, log *fs.LogArea) *slotState {
	ss := &slotState{
		slot:       slot,
		client:     client,
		log:        log,
		digestKick: sim.NewEvent(s.cl.Env),
		repKick:    sim.NewEvent(s.cl.Env),
		snd:        core.NewChainSender[uint64](len(s.cl.Chain(s.machine))),
	}
	s.clients[slot] = ss
	name := s.cl.Machines[s.machine].Name
	s.cl.Env.Go(fmt.Sprintf("%s/digest%d", name, slot), func(p *sim.Proc) { s.runDigest(p, ss) })
	return ss
}

// runDigest applies a local client's log to the public area with host
// cores (Assise's SharedFS digestion — interference source I1: "SharedFS
// creates many threads to apply file system updates"). The data movement
// fans out across a pool of indexing threads, which is what steals cores
// from co-running applications.
func (s *SharedFS) runDigest(p *sim.Proc, ss *slotState) {
	for {
		for ss.log.Head() == ss.digested {
			p.Wait(ss.digestKick)
		}
		to := ss.log.Head()
		ctx := s.cl.HostCtx(p, s.machine, "dfs")
		if !s.digest(&ctx, ss.log, &ss.rawBuf, ss.digested, to) {
			// Corrupt region: stop digesting this client.
			return
		}
		ss.digested = to
		s.maybeReclaim(p, ss)
	}
}

// digest applies [from, to) of a log — a local client's or a mirror's — to
// this node's public area: decode, coalesce, apply with CPU stores, and burn
// the pool's cores for the bytes moved. It reports false if the range does
// not decode or apply. scratch is the caller's read buffer, reused across
// rounds (decoded entries borrow it and are dropped before the next round).
func (s *SharedFS) digest(ctx *fs.Ctx, log *fs.LogArea, scratch *[]byte, from, to uint64) bool {
	entries, raw, err := log.DecodeRangeScratch(ctx, *scratch, from, to)
	*scratch = raw
	if err != nil {
		return false
	}
	kept, _ := fs.Coalesce(entries)
	var burn int64
	cp := func(dst int64, src []byte) {
		burn += int64(len(src))
		ctx.Write(dst, src)
	}
	if err := s.cl.Vols[s.machine].ApplyAll(ctx, kept, cp); err != nil {
		return false
	}
	s.digestBurn(ctx.P, burn)
	s.DigestedBytes += int64(to - from)
	return true
}

// digestBurn charges the digestion data movement across a fan of SharedFS
// worker threads: CPU stores into PM at the per-thread store ceiling, with
// parallelization overhead. This is the burst of busy cores that turns
// into application interference (Fig. 6).
func (s *SharedFS) digestBurn(p *sim.Proc, bytes int64) {
	if bytes == 0 {
		return
	}
	const fan = 16
	const overhead = 1.8 // coordination + cache pollution of the pool
	total := time.Duration(float64(bytes) / s.cl.Cfg.Spec.PMStoreBW * overhead * float64(time.Second))
	per := total / fan
	env := s.cl.Env
	done := 0
	ev := sim.NewEvent(env)
	for i := 0; i < fan-1; i++ {
		env.Go("digest-helper", func(hp *sim.Proc) {
			s.hostCompute(hp, per, "dfs")
			done++
			if done == fan-1 {
				ev.Trigger(nil)
			}
		})
	}
	s.hostCompute(p, per, "dfs")
	if done < fan-1 {
		p.Wait(ev)
	}
}

// maybeReclaim tells the client its log is reusable up to
// min(digested, replicated).
func (s *SharedFS) maybeReclaim(p *sim.Proc, ss *slotState) {
	if upTo := min(ss.digested, ss.replicated); upTo > ss.log.Tail() {
		// SharedFS and LibFS share the host; the notification is a cheap
		// local call.
		ss.client.OnReclaim(p, upTo)
	}
}

// replicateRange chain-replicates [from, to) of a slot's log, blocking the
// calling process until every replica has persisted it. The window sends
// each run as one frame to the first replica, and every replica acks to
// runRepl. Under Hyperloop the replicas' NICs run the chain, but each range
// first takes a pre-posted WQE credit and posts the chained verbs.
func (s *SharedFS) replicateRange(p *sim.Proc, ss *slotState, from, to uint64) error {
	chain := s.cl.Chain(s.machine)
	if s.cl.Cfg.Mode == Hyperloop && len(chain) > 1 {
		s.hlConsume(p)
		s.hostCompute(p, 2*time.Microsecond, "dfs") // posting the chained verbs is cheap
	}
	ss.snd.Queue(to, from, to, int(to-from), int(to-from), true)
	for a := ss.snd.Pump(); a.Op != core.OpIdle; a = ss.snd.Pump() {
		if a.Op == core.OpRelease {
			s.advanceRep(ss, a.H)
		} else if err := s.transmit(p, ss, chain[1]); err != nil {
			return err
		}
	}
	waitRep(p, ss, to)
	s.maybeReclaim(p, ss)
	return nil
}

// transmit sends the window's open run to first as one frame, read from the
// log once the window has taken the run: several threads pump one slot. No
// SharedFS ever leaves, so the send fails only on a broken testbed.
func (s *SharedFS) transmit(p *sim.Proc, ss *slotState, first int) error {
	run := ss.snd.Run
	f := &replMsg{Slot: ss.slot, From: run[0].From, To: run[len(run)-1].To, Settled: ss.snd.Settled(run)}
	ss.snd.Sent(true, time.Duration(p.Now()))
	// The chain borrows the buffer until the window releases the frame.
	f.Payload = ss.takeFrame(int(f.To - f.From))
	ss.lent = append(ss.lent, f)
	ctx := s.cl.HostCtx(p, s.machine, "dfs")
	ss.log.ReadRawInto(&ctx, f.From, f.Payload)
	return s.peers[first].Send(p, "repl", f, len(f.Payload))
}

// takeFrame returns an n-byte buffer from the slot's free list, replacing
// the one on top if it is too small: the slot never holds more buffers than
// it once had frames in flight.
func (ss *slotState) takeFrame(n int) []byte {
	k := len(ss.frames) - 1
	if k < 0 {
		return make([]byte, n)
	}
	b := ss.frames[k]
	ss.frames[k] = nil
	ss.frames = ss.frames[:k]
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// advanceRep marks a slot replicated through to and wakes the ranges
// waiting for it. Every frame that ends there is on every replica, so its
// buffer goes back to the free list: a late copy of it still in flight lies
// below each replica's head, which re-acks it and reads none of its bytes.
func (s *SharedFS) advanceRep(ss *slotState, to uint64) {
	ss.replicated = max(ss.replicated, to)
	n := 0
	for ; n < len(ss.lent) && ss.lent[n].To <= to; n++ {
		ss.frames = append(ss.frames, ss.lent[n].Payload)
	}
	ss.lent = slices.Delete(ss.lent, 0, n)
	s.kick(&ss.repKick)
}

// waitRep blocks until a slot is replicated through off.
func waitRep(p *sim.Proc, ss *slotState, off uint64) {
	for ss.replicated < off {
		p.Wait(ss.repKick)
	}
}

// replMsg is a chain frame: a slot's log bytes [From, To), sent when the
// window had released everything below Settled.
type replMsg struct {
	Slot              int
	From, To, Settled uint64
	Payload           []byte
}

// replAck is a replica's cumulative ack: chain position Pos holds the
// slot's log through To.
type replAck struct {
	Slot, Pos int
	To        uint64
}

// runRepl serves the daemon's replication traffic, subject to dispatch
// jitter under co-running load: chain frames as a replica, acks as a
// primary.
func (s *SharedFS) runRepl(p *sim.Proc) {
	for {
		msg, ok := s.replQ.Get(p)
		if !ok {
			return
		}
		switch msg.Op {
		case "repl":
			s.handleRepl(p, msg.Arg.(*replMsg))
		case "repl-ack":
			ack := msg.Arg.(*replAck)
			ss := s.clients[ack.Slot]
			rel, _ := ss.snd.Ack(ack.Pos, ack.To, time.Duration(p.Now()))
			for _, a := range rel {
				s.advanceRep(ss, a.H)
			}
		}
	}
}

// handleRepl executes the mirror's chain decisions for frame f: a
// dispatch, then for each frame at the mirror head a persist into the
// mirror, the relay downstream (mid-chain) and the ack to the primary. The
// mode decides only who pays for the dispatch and the persist: a host core,
// with CPU stores, in a host-driven chain; under Hyperloop the NIC places
// the frame into PM and no host core is charged.
func (s *SharedFS) handleRepl(p *sim.Proc, f *replMsg) {
	spec := s.cl.Cfg.Spec
	ctx := s.cl.HostCtx(p, s.machine, "dfs")
	if s.cl.Cfg.Mode == Hyperloop {
		ctx = fs.Ctx{P: p, PM: s.cl.Machines[s.machine].PM}
	}
	ctx.Compute(spec.HostRPCCost)
	ms := s.mirror(f.Slot)
	for _, a := range ms.rcv.Arrive(f, f.From, f.To, f.Settled) {
		switch a.Op {
		case core.OpAdopt: // released without this mirror: digest what it holds, then start at From
			s.makeRoom(p, ms, int(ms.log.Cap()))
			ms.log.ResetTo(&ctx, a.From)
			ms.log.Reclaim(&ctx, a.From)
			ms.digested = a.From
		case core.OpReAck:
			s.ack(p, ms, a.To)
		case core.OpForward:
			s.relay(ms, f, 0)
		}
	}
	for sp, ok := ms.rcv.Next(); ok; sp, ok = ms.rcv.Next() {
		data := sp.H.Payload[sp.From-sp.H.From:]
		s.makeRoom(p, ms, len(data))
		// A host's CPU stores into PM run at the single-thread Optane store
		// ceiling; a Hyperloop NIC's placement charges no core.
		ctx.Compute(time.Duration(float64(len(data)) / spec.PMStoreBW * float64(time.Second)))
		if err := ms.log.MirrorRaw(&ctx, sp.From, data); err != nil {
			// Unreachable: the receiver hands out frames at the head only.
			panic(fmt.Sprintf("assise: mirror: %v", err))
		}
		// Replicas digest mirrors too (keeping their public areas current),
		// lazily once enough log accumulates.
		if ms.log.Used() > ms.log.Cap()/3 {
			s.kick(&ms.digestKick)
		}
		if to := ms.rcv.Persisted(sp.To).To; ms.rcv.Tail {
			s.ack(p, ms, to)
		} else {
			s.relay(ms, sp.H, to)
		}
	}
}

// makeRoom holds a frame of n bytes until the ring can take it without
// overwriting what is not digested: it kicks the digest and waits for the
// reclaim. The ack it withholds holds the primary's window back: under
// Hyperloop it stands for the receive WQEs the replica's host must re-post.
func (s *SharedFS) makeRoom(p *sim.Proc, ms *mirrorState, n int) {
	for ms.log.Free() < int64(n) {
		ev := ms.reclaimed
		s.kick(&ms.digestKick)
		p.Wait(ev)
	}
}

// relay forwards frame f to the next replica on a helper process, which
// then acks through ack, if not 0: the ingest thread never waits on this
// replica's egress link, which the forwards keep busy.
func (s *SharedFS) relay(ms *mirrorState, f *replMsg, ack uint64) {
	next := s.peers[ms.chain[ms.pos+1]]
	s.cl.Env.Go(s.cl.Machines[s.machine].Name+"/repl-fwd", func(fp *sim.Proc) {
		_ = next.Send(fp, "repl", f, len(f.Payload))
		if ack != 0 {
			s.ack(fp, ms, ack)
		}
	})
}

// ack tells the slot's primary that this replica holds its log through to.
func (s *SharedFS) ack(p *sim.Proc, ms *mirrorState, to uint64) {
	_ = s.peers[ms.chain[0]].Send(p, "repl-ack", &replAck{Slot: ms.slot, Pos: ms.pos, To: to}, 8)
}

// mirror returns (creating lazily) replica-side state for a slot.
func (s *SharedFS) mirror(slot int) *mirrorState {
	ms, ok := s.mirrors[slot]
	if !ok {
		primary, _ := s.cl.SlotMachine(slot)
		chain := s.cl.Chain(primary)
		pos := slices.Index(chain, s.machine)
		ms = &mirrorState{
			slot:       slot,
			chain:      chain,
			pos:        pos,
			rcv:        core.ChainReceiver[*replMsg]{Tail: pos == len(chain)-1},
			log:        fs.NewLogArea(s.cl.Machines[s.machine].PM, s.cl.LogBase(slot), s.cl.Cfg.LogSize),
			digestKick: sim.NewEvent(s.cl.Env),
			reclaimed:  sim.NewEvent(s.cl.Env),
		}
		s.mirrors[slot] = ms
		name := s.cl.Machines[s.machine].Name
		s.cl.Env.Go(fmt.Sprintf("%s/mdigest%d", name, slot), func(p *sim.Proc) { s.runMirrorDigest(p, ms) })
	}
	return ms
}

// runMirrorDigest publishes replicated log content on a replica: eagerly
// when kicked (mirror filling up), otherwise lazily on a short timer so the
// replica's public area converges without competing with the hot path.
func (s *SharedFS) runMirrorDigest(p *sim.Proc, ms *mirrorState) {
	for {
		for ms.log.Head() == ms.digested {
			p.WaitTimeout(ms.digestKick, 50*time.Millisecond)
			if ms.log.Head() != ms.digested {
				break
			}
		}
		to := ms.log.Head()
		ctx := s.cl.HostCtx(p, s.machine, "dfs")
		if !s.digest(&ctx, ms.log, &ms.rawBuf, ms.digested, to) {
			// Unreachable: no frame overwrites what is not digested
			// (makeRoom), so the mirror holds the primary's log as sent.
			panic(fmt.Sprintf("assise: %s: mirror digest of slot %d [%d, %d) failed",
				s.cl.Machines[s.machine].Name, ms.slot, ms.digested, to))
		}
		ms.digested = to
		ms.log.Reclaim(&ctx, to)
		s.kick(&ms.reclaimed)
	}
}

// hlConsume takes one of the pre-posted WQE credits Hyperloop's NIC-driven
// chain consumes, re-posting (a host-CPU operation that can be delayed
// arbitrarily under contention) when the window empties: the periodic host
// participation behind Hyperloop's 99.9th-percentile spikes (Table 3).
func (s *SharedFS) hlConsume(p *sim.Proc) {
	for s.hlCredits <= 0 {
		if s.hlRefillCh == nil {
			// This process performs the re-post itself.
			s.hlRefillCh = sim.NewEvent(s.cl.Env)
			s.hostCompute(p, hyperloopPost, "dfs")
			s.hlCredits = hyperloopCredits
			ev := s.hlRefillCh
			s.hlRefillCh = nil
			ev.Trigger(nil)
			break
		}
		p.Wait(s.hlRefillCh)
	}
	s.hlCredits--
}

// runBg is one background replication worker (Assise-BgRepl).
func (s *SharedFS) runBg(p *sim.Proc) {
	for {
		job, ok := s.bgQ.Get(p)
		if !ok {
			return
		}
		_ = s.replicateRange(p, s.clients[job.slot], job.from, job.to)
	}
}

// replicateTo hands a slot's log through head to replication: to the
// background pool under BgRepl, else in the caller's context (Pessimistic
// and Hyperloop).
func (s *SharedFS) replicateTo(p *sim.Proc, ss *slotState, head uint64) error {
	from := ss.repQueued
	if head <= from {
		return nil
	}
	ss.repQueued = head
	if s.cl.Cfg.Mode == BgRepl {
		s.bgQ.Put(p, bgJob{slot: ss.slot, from: from, to: head})
		return nil
	}
	return s.replicateRange(p, ss, from, head)
}
