package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/lease"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// svcNICFS is NICFS's service on a machine's network and local ports. Both
// connection classes dial it; a lane reads the class from Conn.LowLat.
const svcNICFS = "nicfs"

// NICFS is the SmartNIC-resident file system service of one node (§3.3).
type NICFS struct {
	cl      *Cluster
	machine int

	vol    *fs.Vol
	leases *lease.Table

	// Each connection's lane (DESIGN.md §13), the low-latency class's
	// reserved core (nil while a lane runs on it), and the lanes' turn at the
	// leases.
	lanes     map[*rdma.Conn]*sim.Queue[*rdma.Msg]
	lowCore   *hw.PinnedCore
	leaseGate *sim.Resource

	// clients is primary-side per-client state; mirrors is replica-side
	// state for logs replicated from remote primaries.
	clients map[int]*clientState
	mirrors map[int]*mirrorState

	// peers are connections over the cluster fabric, by machine index and
	// class (its rdma.ClassPrio).
	peers map[[2]int]*rdma.Conn

	// kwConn reaches the host kernel worker over the machine-local fabric.
	kwConn *rdma.Conn

	// Isolated is true while the host kernel worker is unresponsive; NICFS
	// then makes every publication copy across PCIe itself (§3.5), not only
	// the small batches it always does (publishItems). It describes
	// publication alone: nothing an fsync waits for uses the worker.
	Isolated bool

	epoch   uint64
	history map[uint64][]touched
	// histSeen dedups pure data-write records per epoch so history stays
	// bounded by the touched working set, not the write count.
	histSeen map[uint64]map[touched]struct{}

	// codecGate admits one chunk at a time to LZW coding across the cores
	// (codeTime); codecPeak is the most helpers one chunk has had.
	codecGate *sim.Resource
	codecPeak int

	// Lease persistence/replication runs asynchronously; fsync waits for
	// the pending count to drain (§3.4).
	leasePending int
	leaseQueue   []leaseRecord
	leaseDrained *sim.Event
	leaseKick    *sim.Event

	procs     []*sim.Proc
	down      bool
	recovered bool // Recover has run: new mirrors join their streams mid-way

	// Metrics.
	PubBytes       int64
	RepBytes       int64
	RepWireBytes   int64
	CoalescedBytes int64
	// RepMsgs counts replication data messages this node sends, its forwards
	// included; RepChunksSent counts chunks entering
	// the chain here as primary; AckMsgs counts ack messages received;
	// StaleAcks counts acks that named an unknown slot or node or did not
	// advance a watermark.
	RepMsgs       int64
	RepChunksSent int64
	AckMsgs       int64
	StaleAcks     int64
	StageTimes    map[string]*timeAvg
}

// timeAvg accumulates a mean duration.
type timeAvg struct {
	Total time.Duration
	N     int64
}

func (t *timeAvg) add(d time.Duration) { t.Total += d; t.N++ }

// Mean returns the average accumulated duration.
func (t *timeAvg) Mean() time.Duration {
	if t.N == 0 {
		return 0
	}
	return t.Total / time.Duration(t.N)
}

func newNICFS(cl *Cluster, machine int) *NICFS {
	n := &NICFS{
		cl:       cl,
		machine:  machine,
		vol:      cl.Vols[machine],
		leases:   lease.NewTable(cl.Env, cluster.LeaseTTL),
		clients:  make(map[int]*clientState),
		mirrors:  make(map[int]*mirrorState),
		peers:    make(map[[2]int]*rdma.Conn),
		history:  make(map[uint64][]touched),
		histSeen: make(map[uint64]map[touched]struct{}),
		StageTimes: map[string]*timeAvg{
			"fetch": {}, "validate": {}, "publish": {}, "transfer": {}, "ack": {},
			"wait-pub": {}, "wait-rep": {},
		},
	}
	n.leases.Journal = n.leaseJournal
	n.leaseDrained = sim.NewEvent(cl.Env)
	n.leaseDrained.Trigger(nil)
	n.leaseKick = sim.NewEvent(cl.Env)
	n.codecGate = sim.NewResource(cl.Env, 1)
	n.leaseGate = sim.NewResource(cl.Env, 1)
	return n
}

// Name implements cluster.Member.
func (n *NICFS) Name() string { return n.cl.Machines[n.machine].Name }

// Probe implements cluster.Member: the manager's per-second heartbeat.
func (n *NICFS) Probe(p *sim.Proc) bool { return !n.down }

// EpochChanged implements cluster.Member: persist the new epoch to PM.
func (n *NICFS) EpochChanged(p *sim.Proc, epoch uint64) {
	n.epoch = epoch
	n.pruneHistory()
	// Persist the epoch number (a small PM write across PCIe).
	n.pmWrite(p, epochPMOff, []byte{byte(epoch), byte(epoch >> 8), byte(epoch >> 16), byte(epoch >> 24), 0, 0, 0, 0}, 0)
}

// pmWrite places data at host PM offset dst straight from SmartNIC memory:
// one PCIe crossing at prio and a persist, no host thread (§3.5).
func (n *NICFS) pmWrite(p *sim.Proc, dst int64, data []byte, prio int) {
	m := n.cl.Machines[n.machine]
	m.PCIe.Transfer(p, len(data), prio)
	m.PM.WritePersist(p, dst, data)
}

// epochPMOff stores the persisted epoch inside the superblock's block
// (bytes 128.. are unused by fs).
const epochPMOff = 256

// PeerDown implements cluster.Member.
func (n *NICFS) PeerDown(p *sim.Proc, name string) {
	// Leases arbitrated by this node for clients of the failed node expire.
	n.leases.ExpireHolder(name)
	// Chunks waiting on the dead replica's acks complete against the live
	// replicas' watermarks.
	n.member(name, false)
}

// member tells every slot's window whether name is alive. Slots are visited
// in order: releases emit completion events, so the sequence must be
// deterministic.
func (n *NICFS) member(name string, alive bool) {
	for slot := range n.cl.Cfg.MaxClients {
		if cs := n.clients[slot]; cs != nil {
			cs.release(cs.snd.member(cs.pos(name), alive))
		}
	}
}

// PeerUp implements cluster.Member: the replica's watermark counts again.
func (n *NICFS) PeerUp(p *sim.Proc, name string) { n.member(name, true) }

// Start registers services and launches the NICFS processes. Every
// connection, of either class (§3.3.2), is served by a lane of its own, which
// its first message starts.
func (n *NICFS) Start() {
	m := n.cl.Machines[n.machine]
	n.lanes = make(map[*rdma.Conn]*sim.Queue[*rdma.Msg])
	m.Port.RegisterPerConn(svcNICFS, n.lane)
	m.NICPort.RegisterPerConn(svcNICFS, n.lane)
	n.kwConn = rdma.Dial(m.NICPort, m.HostPort, kworkerService, true)

	env := n.cl.Env
	n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-low", n.holdLowCore))
	n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-detector", n.runDetector))
	n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-leases", n.runLeasePersister))
}

// peer returns (dialing lazily) the connection of class low to machine i's
// NICFS.
func (n *NICFS) peer(i int, low bool) *rdma.Conn {
	k := [2]int{i, rdma.ClassPrio(low)}
	c := n.peers[k]
	if c == nil {
		c = rdma.Dial(n.cl.Machines[n.machine].Port, n.cl.Machines[i].Port, svcNICFS, low)
		n.peers[k] = c
	}
	return c
}

// nicCompute charges SmartNIC CPU work.
func (n *NICFS) nicCompute(p *sim.Proc, work time.Duration) {
	n.cl.Machines[n.machine].NICCPU.Compute(p, work, 0, "nicfs")
}

// holdLowCore keeps one core out of the shared pool for the lanes until NICFS
// goes down: small operations do not wait out a bulk stage's time slice.
func (n *NICFS) holdLowCore(p *sim.Proc) {
	core := n.cl.Machines[n.machine].NICCPU.Pin(p, 10)
	defer core.Unpin()
	n.lowCore = core
	p.Wait(sim.NewEvent(p.Env()))
}

// lane names connection c's queue to rdma, starting its lane if it has none.
func (n *NICFS) lane(c *rdma.Conn) *sim.Queue[*rdma.Msg] {
	q := n.lanes[c]
	if q == nil {
		q = sim.NewQueue[*rdma.Msg](n.cl.Env, 0)
		n.lanes[c] = q
		name := n.Name() + "/nicfs-bulk"
		if c.LowLat {
			name = n.Name() + "/nicfs-low"
		}
		n.procs = append(n.procs, n.cl.Env.Go(name, func(p *sim.Proc) { n.runLane(p, c.LowLat, q) }))
	}
	return q
}

// runLane serves one connection in arrival order — a queue pair's guarantee,
// and what keeps a replica's cumulative acks in order — beside the other
// connections' lanes. A low-latency lane dispatches on the reserved core if no
// lane is on it and else on the pool, ahead of bulk work; a bulk lane
// dispatches on the pool at bulk priority. Every operation is served inline
// but fsync, which spawns a handler so one slow sync cannot head-of-line block
// lease traffic. What Crash finds queued is left to the callers' deadlines.
func (n *NICFS) runLane(p *sim.Proc, lowLat bool, q *sim.Queue[*rdma.Msg]) {
	defer q.Close()
	cpu, cost, prio := n.cl.Machines[n.machine].NICCPU, n.cl.Cfg.Spec.NICRPCCost, 0
	if lowLat {
		prio = 10
	}
	for {
		msg, ok := q.Get(p)
		if !ok {
			return
		}
		if core := n.lowCore; lowLat && core != nil {
			n.lowCore = nil
			core.Run(p, cost, "nicfs")
			n.lowCore = core
		} else {
			cpu.Compute(p, cost, prio, "nicfs")
		}
		switch msg.Op {
		case "attach":
			n.handleAttach(p, msg)
		case "open":
			n.handleOpen(p, msg)
		case "lease-acquire":
			n.handleLeaseAcquire(p, msg)
		case "fsync":
			req := msg.Arg.(*fsyncReq)
			n.procs = append(slices.DeleteFunc(n.procs, finished), n.cl.Env.Go(n.Name()+"/fsync", func(hp *sim.Proc) {
				n.handleFsync(hp, msg, req)
			}))
		case "chunk-ready":
			req := msg.Arg.(*chunkReady)
			if cs := n.clients[req.Slot]; cs != nil {
				// One coalesced doorbell submits every marked chunk plus
				// the final range under a single dispatch charge; stale
				// boundaries (<= queued) are no-ops inside formChunk.
				for _, m := range req.Marks {
					cs.formChunk(p, m, false)
				}
				cs.formChunk(p, req.Head, false)
			}
		case "repl-chunk-batch":
			// Chain traffic rides the class of the chunks it carries.
			n.routeMirror(p, msg)
		case "repl-ack":
			n.handleReplAck(p, msg.Arg.(*replAck))
		case "lease-record":
			// Replicated lease journal entry: persist locally.
			rec := msg.Arg.(*leaseRecord)
			n.persistLeaseRecord(p, *rec)
		case "history":
			n.handleHistory(p, msg)
		case "fetch-file":
			n.handleFetchFile(p, msg)
		default:
			msg.RespondErr(p, fmt.Errorf("nicfs: unknown op %q", msg.Op))
		}
	}
}

// handleAttach admits a LibFS client: allocate its inode range and create
// the shared log-area view.
func (n *NICFS) handleAttach(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*attachReq)
	cl := n.cl
	logBase := cl.LogBase(req.Slot)
	// Idempotent for the RPC-retry path: a duplicate attach (the response
	// was lost, the client retried) must not tear down live per-client
	// state — re-answer with the same admission instead.
	if cur := n.clients[req.Slot]; cur == nil || cur.id != req.Client {
		la := fs.NewLogArea(cl.Machines[n.machine].PM, logBase, cl.Cfg.LogSize)
		n.clients[req.Slot] = newClientState(n, req.Slot, req.Client, la)
	}
	resp := &attachResp{LogBase: logBase, LogSize: cl.Cfg.LogSize}
	resp.InoBase, resp.InoCount = cl.InoRange(req.Slot)
	msg.Respond(p, resp, 64)
}

// handleOpen performs the permission check and path resolution LibFS
// requests on every open (§3.6). Indexes are cached in SmartNIC DRAM, so
// reads here do not cross PCIe.
func (n *NICFS) handleOpen(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*openReq)
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	ino, err := n.vol.Resolve(ctx, req.Path)
	if err != nil {
		msg.RespondErr(p, err)
		return
	}
	in, err := n.vol.ReadInode(ctx, ino)
	if err != nil {
		msg.RespondErr(p, err)
		return
	}
	// Permission check cost (ACL walk).
	n.nicCompute(p, 500*time.Nanosecond)
	msg.Respond(p, &openResp{Ino: ino, Size: in.Size, Type: in.Type}, 32)
}

// handleLeaseAcquire grants or denies a lease; on conflict the holders are
// asked to give the lease up (revocation) and the requester retries.
func (n *NICFS) handleLeaseAcquire(p *sim.Proc, msg *rdma.Msg) {
	req := msg.Arg.(*leaseReq)
	n.nicCompute(p, n.cl.Cfg.Spec.LeaseCheckCost)
	// One lane at a time from decision to reply: the revocation notice yields,
	// and the holder's refresh let in there leaves two clients sure they hold it.
	n.leaseGate.Acquire(p, 0)
	defer n.leaseGate.Release()
	ok, conflicts := n.leases.Acquire(req.Ino, req.Client, req.Mode)
	if !ok {
		// Revoke the conflicting holders: notify them to drop their cached
		// leases and remove the grants, then retry. In-flight log entries
		// from the previous holder are still accepted by validation via
		// its re-acquire fallback, preserving single-writer ordering at
		// publication.
		for _, holder := range conflicts {
			n.sendRevoke(p, holder, req.Ino)
			n.leases.Revoke(req.Ino, holder)
		}
		ok, conflicts = n.leases.Acquire(req.Ino, req.Client, req.Mode)
	}
	msg.Respond(p, &leaseResp{OK: ok, Conflicts: conflicts}, 16)
}

// sendRevoke notifies a LibFS holder to drop its cached lease. Slot order
// keeps the holder lookup deterministic even if ids were ever duplicated.
func (n *NICFS) sendRevoke(p *sim.Proc, holder string, ino fs.Ino) {
	for slot := range n.cl.Cfg.MaxClients {
		if cs := n.clients[slot]; cs != nil && cs.id == holder {
			cs.notifyClient(p, "revoke", &revokeMsg{Ino: ino}, 16)
			return
		}
	}
}

// leaseJournal is the lease.Table hook: every grant/release must reach PM
// and the replicas before the next fsync completes.
func (n *NICFS) leaseJournal(rec lease.Record, released bool) {
	if n.leasePending == 0 {
		n.leaseDrained = sim.NewEvent(n.cl.Env)
	}
	n.leasePending++
	n.leaseQueue = append(n.leaseQueue, leaseRecord{Rec: rec, Released: released})
	n.leaseKick.Trigger(nil)
}

// runLeasePersister batches lease records, persists them to host PM across
// PCIe and replicates them to the chain peers, asynchronously (§3.4).
func (n *NICFS) runLeasePersister(p *sim.Proc) {
	for {
		if len(n.leaseQueue) == 0 {
			n.leaseKick = sim.NewEvent(n.cl.Env)
			p.Wait(n.leaseKick)
		}
		batch := n.leaseQueue
		n.leaseQueue = nil
		for _, rec := range batch {
			n.persistLeaseRecord(p, rec)
		}
		// Replicate the batch to chain peers.
		for _, mi := range n.cl.Chain(n.machine)[1:] {
			for i := range batch {
				n.peer(mi, false).Send(p, "lease-record", &batch[i], 48)
			}
		}
		n.leasePending -= len(batch)
		if n.leasePending == 0 {
			n.leaseDrained.Trigger(nil)
		}
	}
}

// persistLeaseRecord writes one lease record to the PM lease journal. The
// journal is modeled by its cost only: the record's bytes are never filled in.
func (n *NICFS) persistLeaseRecord(p *sim.Proc, rec leaseRecord) {
	n.pmWrite(p, leaseJournalOff, leaseRecordZero[:], 0)
}

var leaseRecordZero [48]byte

// leaseJournalOff is a small PM scratch area for the lease journal.
const leaseJournalOff = 384

// detectorMisses is the kernel-worker detector's hysteresis, the same idea
// as the cluster manager's three missed probes: one late probe flips nothing.
const detectorMisses = 2

// runDetector monitors the host kernel worker (§3.5): detectorMisses
// consecutive missed probes flip NICFS into isolated operation; a single
// successful probe flips it back. (A copy request that times out flips it at
// once, in publishItems: that is a dead worker seen at first hand.)
func (n *NICFS) runDetector(p *sim.Proc) {
	interval := n.cl.Cfg.HeartbeatEvery / 2
	misses := 0
	for {
		p.Sleep(interval)
		_, err, replied := n.kwConn.CallTimeout(p, "probe", nil, 8, interval/2, nil)
		if replied && err == nil {
			misses = 0
			n.Isolated = false
			continue
		}
		misses++
		if misses >= detectorMisses {
			n.Isolated = true
		}
	}
}

// handleReplAck hands the slot's window a replica's cumulative watermark.
// An ack that names an unknown slot or node, or does not advance its
// watermark, is stale (e.g. a late duplicate after a membership resweep)
// and is counted, not applied.
func (n *NICFS) handleReplAck(p *sim.Proc, ack *replAck) {
	n.AckMsgs++
	if cs := n.clients[ack.Slot]; cs != nil {
		if rel, stale := cs.snd.ack(cs.pos(ack.Node), ack.To, time.Duration(p.Now())); !stale {
			cs.release(rel)
			return
		}
	}
	n.StaleAcks++
	n.cl.Robust.StaleAcks++
}

// recordHistory merges namespace-history records into the epoch's list.
// Pure data-write records (no name, not a deletion) are idempotent for
// recovery — one per (epoch, inode) suffices — so they dedup through
// histSeen and the list is bounded by the touched working set. Namespace
// records keep their order and multiplicity: recovery resolves an inode by
// its newest record, so a create after an unlink must stay behind it.
func (n *NICFS) recordHistory(epoch uint64, ts []touched) {
	if len(ts) == 0 {
		return
	}
	seen := n.histSeen[epoch]
	if seen == nil {
		seen = make(map[touched]struct{})
		n.histSeen[epoch] = seen
	}
	h := n.history[epoch]
	for _, t := range ts {
		if t.Name == "" && !t.Gone {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
		}
		h = append(h, t)
	}
	n.history[epoch] = h
}

// pruneHistory drops epochs no recovering peer can still ask for. A node
// that persisted epoch E re-requests history from E on recovery (crash-to-
// detection writes land in E), and a crash during the epoch bump can leave
// a peer one more epoch behind — so the two previous epochs are retained
// and older ones reclaimed, but only while every machine is alive: a down
// peer's recovery point is unknown until it returns.
func (n *NICFS) pruneHistory() {
	for _, m := range n.cl.Machines {
		if !n.cl.Mgr.Alive(m.Name) {
			return
		}
	}
	if n.epoch < 3 {
		return
	}
	var old []uint64
	for e := range n.history {
		if e < n.epoch-2 {
			old = append(old, e)
		}
	}
	sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
	for _, e := range old {
		delete(n.history, e)
		delete(n.histSeen, e)
	}
}

// publishItems makes publication's copies, off every ack path. One rule picks
// the engine (DESIGN.md §11): a batch that crosses PCIe in no more time than
// the kernel worker's host costs, or any batch while the worker is down, goes
// NIC memory → PM across PCIe; a larger one is the worker's, PM to PM by
// DMA. A kernel worker that dies mid-copy is retried through the PCIe path —
// publication is idempotent.
// It returns true when a timed-out kernel worker may still read the item
// buffers, late or never: the caller must then never recycle them.
func (n *NICFS) publishItems(p *sim.Proc, items []copyItem) bool {
	retained := false
	if !n.Isolated && copyBytes(items) > n.pcieCrossover() {
		_, err, replied := n.kwConn.CallTimeout(p, "copy", &copyReq{Items: items},
			64*len(items), 50*time.Millisecond, nil)
		if replied && err == nil {
			return false
		}
		retained = !replied
		n.Isolated = true
	}
	// One PCIe write per run of items adjacent both in PM and in the buffer.
	for i := 0; i < len(items); {
		dst, data := items[i].Dst, items[i].Data
		for i++; i < len(items) && items[i].Dst == dst+int64(len(data)); i++ {
			next, ok := extendInto(data, items[i].Data)
			if !ok {
				break
			}
			data = next
		}
		n.pmWrite(p, dst, data, 0)
	}
	return retained
}

// pcieCrossover is the largest batch whose bytes cross PCIe in no more time
// than the kernel worker takes from a host core to copy it (27 000 bytes at
// 9 GB/s).
func (n *NICFS) pcieCrossover() int {
	return int(float64(kwIssueCost+kwCompletionCost) * n.cl.Cfg.Spec.PCIeBW / float64(time.Second))
}

// copyBytes is the payload of a publication batch.
func copyBytes(items []copyItem) int {
	total := 0
	for _, it := range items {
		total += len(it.Data)
	}
	return total
}

// extendInto returns a grown by b when b starts where a ends in memory.
func extendInto(a, b []byte) ([]byte, bool) {
	n := len(a)
	if len(b) == 0 || cap(a)-n < len(b) || &a[:n+1][n] != &b[0] {
		return nil, false
	}
	return a[:n+len(b)], true
}

// finished is what a list of processes to kill drops before it grows.
func finished(p *sim.Proc) bool { return p.Done.Triggered() }

// Crash takes the NICFS down (SmartNIC failure injection for tests).
func (n *NICFS) Crash() {
	if n.down {
		return
	}
	n.down = true
	m := n.cl.Machines[n.machine]
	m.Port.Unregister(svcNICFS)
	m.NICPort.Unregister(svcNICFS)
	for _, p := range n.procs {
		p.Kill()
	}
	n.procs = nil
	n.lowCore = nil
	for _, cs := range n.clients {
		cs.kill()
	}
	for _, ms := range n.mirrors {
		ms.kill()
	}
}
