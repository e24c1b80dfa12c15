package assise

import (
	"fmt"
	"time"

	"linefs/internal/cluster"
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

	// bgQ dispatches background replication ranges (BgRepl mode); bgSem
	// caps cluster-wide bg thread concurrency.
	bgQ *sim.Queue[bgJob]

	// Hyperloop WQE credits: operations remaining before the host must
	// re-post the chained WQEs.
	hlCredits  int
	hlWait     *sim.Event
	hlRefillCh *sim.Event

	peerConns map[int]*rdma.Conn

	procs []*sim.Proc

	// DigestedBytes counts locally published bytes (primary + mirrors).
	DigestedBytes int64
}

// slotState is the primary-side bookkeeping for one local client.
type slotState struct {
	slot   int
	client attachedClient
	log    *fs.LogArea

	digested   uint64
	replicated uint64
	repQueued  uint64

	// repWin bounds in-flight replication chunks per slot; replicas
	// reorder arrivals by log offset, so several chunks can pipeline
	// through the chain concurrently.
	repWin *sim.Resource

	digestKick *sim.Event
	repWaiters []repWaiter

	// rawBuf is the digest read scratch, reused across rounds (decoded
	// entries borrow it and are dropped before the next round).
	rawBuf []byte
}

type repWaiter struct {
	off uint64
	ev  *sim.Event
}

// attachedClient is the slice of dfs.Client SharedFS needs back-references
// to (reclaim notifications).
type attachedClient interface {
	OnReclaim(p *sim.Proc, upTo uint64)
	OnRevoke(ino fs.Ino)
	ID() string
}

// mirrorState is replica-side per-slot state.
type mirrorState struct {
	slot       int
	log        *fs.LogArea
	digested   uint64
	digestKick *sim.Event

	// stash reorders chunks that arrived ahead of the mirror head.
	stash    map[uint64]*stashed
	draining bool

	// rawBuf is the digest read scratch, reused across rounds.
	rawBuf []byte
}

type stashed struct {
	req *replMsg
	msg *rdma.Msg
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
		hlCredits: cl.Cfg.HyperloopCredits,
		peerConns: make(map[int]*rdma.Conn),
	}
	s.hlWait = sim.NewEvent(cl.Env)
	cl.Machines[machine].Port.Register(svcRepl, s.replQ)
	return s
}

// Start launches the daemon's processes.
func (s *SharedFS) Start() {
	env := s.cl.Env
	name := s.cl.Machines[s.machine].Name
	// Replication ingest: one SharedFS service thread persists incoming
	// chunks with CPU stores — single-thread PM store bandwidth is the
	// physical ceiling that keeps host-based replication off line rate.
	s.procs = append(s.procs, env.Go(name+"/sharedfs-repl", s.runRepl))
	// Background replication pool (BgRepl mode).
	for i := 0; i < bgThreads; i++ {
		s.procs = append(s.procs, env.Go(name+"/sharedfs-bg", s.runBg))
	}
}

func (s *SharedFS) hostCompute(p *sim.Proc, work time.Duration, tag string) {
	m := s.cl.Machines[s.machine]
	m.HostCPU.Compute(p, work, s.cl.Cfg.DFSPrio, tag)
}

func (s *SharedFS) peer(i int) *rdma.Conn {
	if c, ok := s.peerConns[i]; ok {
		return c
	}
	c := rdma.Dial(s.cl.Machines[s.machine].Port, s.cl.Machines[i].Port, svcRepl, false)
	s.peerConns[i] = c
	return c
}

// register admits a local client and spawns its digestion worker.
func (s *SharedFS) register(slot int, client attachedClient, log *fs.LogArea) *slotState {
	ss := &slotState{
		slot:       slot,
		client:     client,
		log:        log,
		repWin:     sim.NewResource(s.cl.Env, 4),
		digestKick: sim.NewEvent(s.cl.Env),
	}
	s.clients[slot] = ss
	name := s.cl.Machines[s.machine].Name
	s.procs = append(s.procs, s.cl.Env.Go(fmt.Sprintf("%s/digest%d", name, slot), func(p *sim.Proc) {
		s.runDigest(p, ss)
	}))
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
		if !s.digest(s.cl.HostCtx(p, s.machine, "dfs"), ss.log, &ss.rawBuf, ss.digested, to) {
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
	upTo := ss.digested
	if ss.replicated < upTo {
		upTo = ss.replicated
	}
	if upTo > ss.log.Tail() {
		// SharedFS and LibFS share the host; the notification is a cheap
		// local call.
		ss.client.OnReclaim(p, upTo)
	}
}

// kickDigest wakes the digestion worker.
func (ss *slotState) kick(env *sim.Env) {
	ss.digestKick.Trigger(nil)
	ss.digestKick = sim.NewEvent(env)
}

// replicateRange chain-replicates [from, to) of a slot's log, blocking the
// calling process until every replica has persisted it. sync marks the
// fsync path.
func (s *SharedFS) replicateRange(p *sim.Proc, ss *slotState, from, to uint64) error {
	if from >= to {
		return nil
	}
	// Bound in-flight chunks per slot; the chain pipelines the rest.
	ss.repWin.Acquire(p, 0)
	defer ss.repWin.Release()

	ctx := s.cl.HostCtx(p, s.machine, "dfs")
	// A fresh buffer, not a scratch: the chain borrows it until the last ack.
	raw := make([]byte, to-from)
	ss.log.ReadRawInto(ctx, from, raw)

	chain := s.cl.Chain(s.machine)
	if len(chain) > 1 {
		if s.cl.Cfg.Mode == Hyperloop {
			if err := s.replicateHyperloop(p, ss.slot, chain[1:], from, raw); err != nil {
				return err
			}
		} else {
			// Host-driven chain: RPC to the first replica, which persists
			// and forwards; the call returns when the whole chain acked.
			req := &replMsg{Slot: ss.slot, From: from, To: to, Payload: raw, Chain: chain, Hop: 1}
			if _, err := s.peer(chain[1]).Call(p, "repl", req, len(raw)); err != nil {
				return err
			}
		}
	}
	if to > ss.replicated {
		ss.replicated = to
	}
	for i := 0; i < len(ss.repWaiters); {
		w := ss.repWaiters[i]
		if ss.replicated >= w.off {
			w.ev.Trigger(nil)
			ss.repWaiters = append(ss.repWaiters[:i], ss.repWaiters[i+1:]...)
			continue
		}
		i++
	}
	s.maybeReclaim(p, ss)
	return nil
}

// replMsg carries a replication chunk hop by hop.
type replMsg struct {
	Slot     int
	From, To uint64
	Payload  []byte
	Chain    []int
	Hop      int
}

// runRepl serves incoming replication chunks on a replica: persist into the
// local mirror with host CPU, forward down the chain, acknowledge. All on
// host cores, subject to dispatch jitter under co-running load.
func (s *SharedFS) runRepl(p *sim.Proc) {
	for {
		msg, ok := s.replQ.Get(p)
		if !ok {
			return
		}
		switch msg.Op {
		case "repl":
			req := msg.Arg.(*replMsg)
			s.handleRepl(p, msg, req)
		case "hl-note":
			req := msg.Arg.(*replMsg)
			// Hyperloop already placed the bytes with one-sided writes;
			// the host only advances mirror state and digests.
			s.hostCompute(p, 2*time.Microsecond, "dfs")
			ms := s.mirror(req.Slot)
			if req.From == ms.log.Head() {
				ctx := s.cl.HostCtx(p, s.machine, "dfs")
				if err := ms.log.AdvanceHead(ctx, req.From, int(req.To-req.From)); err != nil {
					// Unreachable: From == Head() was just checked, and the
					// kernel is single-threaded between the check and here.
					panic(fmt.Sprintf("assise: hyperloop advance: %v", err))
				}
				s.digestMirror(p, ms)
			}
			if msg.NeedsReply() {
				msg.Respond(p, true, 8)
			}
		}
	}
}

func (s *SharedFS) handleRepl(p *sim.Proc, msg *rdma.Msg, req *replMsg) {
	spec := s.cl.Cfg.Spec
	// Request dispatch on a contended host.
	s.hostCompute(p, spec.HostRPCCost, "dfs")

	ms := s.mirror(req.Slot)
	// Arrivals can be out of order (several chunks pipeline through the
	// chain); stash and drain contiguously from the mirror head.
	ms.stash[req.From] = &stashed{req: req, msg: msg}
	if ms.draining {
		return
	}
	ms.draining = true
	defer func() { ms.draining = false }()
	for {
		st, ok := ms.stash[ms.log.Head()]
		if !ok {
			return
		}
		delete(ms.stash, st.req.From)
		s.persistAndForward(p, ms, st)
	}
}

// persistAndForward is one chain hop for one chunk: persist into the local
// mirror with host-CPU stores, then forward downstream without holding the
// ingest thread; the upstream ack fires once the whole downstream chain is
// durable.
func (s *SharedFS) persistAndForward(p *sim.Proc, ms *mirrorState, st *stashed) {
	spec := s.cl.Cfg.Spec
	req, msg := st.req, st.msg
	ctx := s.cl.HostCtx(p, s.machine, "dfs")
	// CPU stores into PM: the single-thread Optane store ceiling.
	s.hostCompute(p, time.Duration(float64(len(req.Payload))/spec.PMStoreBW*float64(time.Second)), "dfs")
	if err := ms.log.MirrorRaw(ctx, req.From, req.Payload); err != nil {
		msg.RespondErr(p, err)
		return
	}
	// Replicas digest mirrors too (keeping their public areas current),
	// lazily once enough log accumulates.
	if ms.log.Used() > ms.log.Cap()/3 {
		s.digestMirror(p, ms)
	}
	if req.Hop+1 >= len(req.Chain) {
		msg.Respond(p, true, 8)
		return
	}
	// Forward in a helper so the ingest thread keeps draining; the caller
	// hears back once every downstream copy is durable.
	fwd := *req
	fwd.Hop = req.Hop + 1
	s.cl.Env.Go(s.cl.Machines[s.machine].Name+"/repl-fwd", func(fp *sim.Proc) {
		if _, err := s.peer(fwd.Chain[fwd.Hop]).Call(fp, "repl", &fwd, len(fwd.Payload)); err != nil {
			msg.RespondErr(fp, err)
			return
		}
		msg.Respond(fp, true, 8)
	})
}

// mirror returns (creating lazily) replica-side state for a slot.
func (s *SharedFS) mirror(slot int) *mirrorState {
	ms, ok := s.mirrors[slot]
	if !ok {
		ms = &mirrorState{
			slot:       slot,
			log:        fs.NewLogArea(s.cl.Machines[s.machine].PM, s.cl.LogBase(slot), s.cl.Cfg.LogSize),
			digestKick: sim.NewEvent(s.cl.Env),
			stash:      make(map[uint64]*stashed),
		}
		s.mirrors[slot] = ms
		name := s.cl.Machines[s.machine].Name
		s.procs = append(s.procs, s.cl.Env.Go(fmt.Sprintf("%s/mdigest%d", name, slot), func(p *sim.Proc) {
			s.runMirrorDigest(p, ms)
		}))
	}
	return ms
}

func (s *SharedFS) digestMirror(p *sim.Proc, ms *mirrorState) {
	ms.digestKick.Trigger(nil)
	ms.digestKick = sim.NewEvent(s.cl.Env)
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
		if !s.digest(ctx, ms.log, &ms.rawBuf, ms.digested, to) {
			return
		}
		ms.digested = to
		ms.log.Reclaim(ctx, to)
	}
}

// replicateHyperloop performs the chain with NIC-driven one-sided writes:
// no remote host CPU touches the data path, but each hop consumes a
// pre-posted WQE credit at this node; when credits run out the *host* must
// re-post the chain — the periodic participation that produces Hyperloop's
// 99.9th-percentile spikes (Table 3).
func (s *SharedFS) replicateHyperloop(p *sim.Proc, slot int, replicas []int, from uint64, raw []byte) error {
	s.hlConsume(p)
	// Posting the chained WRITE/WAIT verbs is cheap.
	s.hostCompute(p, 2*time.Microsecond, "dfs")
	view := fs.NewLogView(s.cl.LogBase(slot), s.cl.Cfg.LogSize)
	for _, mi := range replicas {
		conn := s.peer(mi)
		for off := 0; off < len(raw); {
			seg := view.SegmentAt(from+uint64(off), len(raw)-off)
			if err := conn.RDMAWrite(p, "pm", seg.PhysOff, raw[off:off+seg.Len]); err != nil {
				return err
			}
			off += seg.Len
		}
		// Completion propagation through the chained WQEs.
		p.Sleep(2 * time.Microsecond)
	}
	// Notify replica hosts so mirrors advance and digestion proceeds
	// (Assise+Hyperloop still needs periodic host participation for
	// publication, §5.2.1).
	note := &replMsg{Slot: slot, From: from, To: from + uint64(len(raw))}
	for _, mi := range replicas {
		_ = s.peer(mi).Send(p, "hl-note", note, 32)
	}
	return nil
}

// hlConsume takes one WQE credit, re-posting (a host-CPU operation that
// can be delayed arbitrarily under contention) when the window empties.
func (s *SharedFS) hlConsume(p *sim.Proc) {
	for s.hlCredits <= 0 {
		if s.hlRefillCh == nil {
			// This process performs the re-post itself.
			s.hlRefillCh = sim.NewEvent(s.cl.Env)
			s.hostCompute(p, s.cl.Cfg.HyperloopPost, "dfs")
			s.hlCredits = s.cl.Cfg.HyperloopCredits
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
		ss := s.clients[job.slot]
		if ss == nil {
			continue
		}
		_ = s.replicateRange(p, ss, job.from, job.to)
	}
}

// queueBg schedules [queued, head) for background replication.
func (s *SharedFS) queueBg(p *sim.Proc, ss *slotState, head uint64) {
	if head <= ss.repQueued {
		return
	}
	from := ss.repQueued
	ss.repQueued = head
	s.bgQ.Put(p, bgJob{slot: ss.slot, from: from, to: head})
}

// fsyncSlot replicates everything through head and returns once durable on
// all replicas.
func (s *SharedFS) fsyncSlot(p *sim.Proc, ss *slotState, head uint64) error {
	if s.cl.Cfg.Mode == BgRepl {
		// Queue the remainder for the background pool.
		s.queueBg(p, ss, head)
	} else if from := ss.repQueued; head > from {
		// Pessimistic and Hyperloop: replicate in the caller's context.
		ss.repQueued = head
		if err := s.replicateRange(p, ss, from, head); err != nil {
			return err
		}
	}
	// Either way, ranges queued earlier may still be in flight: wait for
	// the pipeline to drain to head.
	if ss.replicated < head {
		ev := sim.NewEvent(s.cl.Env)
		ss.repWaiters = append(ss.repWaiters, repWaiter{off: head, ev: ev})
		p.Wait(ev)
	}
	return nil
}
