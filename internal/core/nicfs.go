package core

import (
	"fmt"
	"sort"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/lease"
	"linefs/internal/pipeline"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// Service names on a machine's network and local ports.
const (
	svcLow  = "nicfs.low"  // latency-critical: fsync, leases, open, attach
	svcBulk = "nicfs.bulk" // data-intensive: chunks, acks, recovery
)

// NICFS is the SmartNIC-resident file system service of one node (§3.3).
type NICFS struct {
	cl      *Cluster
	machine int

	vol    *fs.Vol
	leases *lease.Table

	// The low-latency class's lanes (DESIGN.md §13): each connection's queue,
	// the reserved core (nil while a lane runs on it), their turn at the leases.
	lanes     map[*rdma.Conn]*sim.Queue[*rdma.Msg]
	lowCore   *hw.PinnedCore
	leaseGate *sim.Resource
	bulkQ     *sim.Queue[*rdma.Msg]

	// clients is primary-side per-client state; mirrors is replica-side
	// state for logs replicated from remote primaries.
	clients map[int]*clientState
	mirrors map[int]*mirrorState

	// peer connections over the cluster fabric, by machine index.
	peerBulk map[int]*rdma.Conn
	peerLow  map[int]*rdma.Conn

	// kwConn reaches the host kernel worker over the machine-local fabric.
	kwConn *rdma.Conn

	// Isolated is true while the host kernel worker is unresponsive; NICFS
	// then makes the publication copies across PCIe itself (§3.5). It
	// describes publication alone: nothing an fsync waits for uses the worker.
	Isolated bool

	epoch   uint64
	history map[uint64][]touched
	// histSeen dedups pure data-write records per epoch so history stays
	// bounded by the touched working set, not the write count.
	histSeen map[uint64]map[touched]struct{}

	// plBudget caps pipeline worker growth across every client's pipelines:
	// the SmartNIC's wimpy cores are one shared pool.
	plBudget *pipeline.Budget

	// codecGate admits one chunk at a time to LZW coding across the cores
	// (codeAcrossCores); codecPeak is the most helpers one chunk has had.
	codecGate *sim.Resource
	codecPeak int

	// Lease persistence/replication runs asynchronously; fsync waits for
	// the pending count to drain (§3.4).
	leasePending int
	leaseQueue   []leaseRecord
	leaseDrained *sim.Event
	leaseKick    *sim.Event

	// NICMem flow control (§4).
	memFreed *sim.Event

	procs     []*sim.Proc
	down      bool
	recovered bool // Recover has run: new mirrors join their streams mid-way

	// Metrics.
	PubBytes       int64
	RepBytes       int64
	RepWireBytes   int64
	CoalescedBytes int64
	// RepMsgs counts replication data messages sent by this node (chunk,
	// batch, and direct-write notes); RepChunksSent counts chunks entering
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

// stageAdd accumulates into a named stage timer, creating it on demand.
func (n *NICFS) stageAdd(name string, d time.Duration) {
	ta, ok := n.StageTimes[name]
	if !ok {
		ta = &timeAvg{}
		n.StageTimes[name] = ta
	}
	ta.add(d)
}

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
		bulkQ:    sim.NewQueue[*rdma.Msg](cl.Env, 0),
		clients:  make(map[int]*clientState),
		mirrors:  make(map[int]*mirrorState),
		peerBulk: make(map[int]*rdma.Conn),
		peerLow:  make(map[int]*rdma.Conn),
		history:  make(map[uint64][]touched),
		histSeen: make(map[uint64]map[touched]struct{}),
		plBudget: pipeline.NewBudget(2 * cl.Cfg.Spec.NICCores),
		StageTimes: map[string]*timeAvg{
			"fetch": {}, "validate": {}, "publish": {}, "transfer": {}, "ack": {},
		},
	}
	n.leases.Journal = n.leaseJournal
	n.leaseDrained = sim.NewEvent(cl.Env)
	n.leaseDrained.Trigger(nil)
	n.leaseKick = sim.NewEvent(cl.Env)
	n.memFreed = sim.NewEvent(cl.Env)
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
	n.pmWrite(p, epochPMOff, []byte{byte(epoch), byte(epoch >> 8), byte(epoch >> 16), byte(epoch >> 24), 0, 0, 0, 0})
}

// pmWrite places data at host PM offset dst straight from SmartNIC memory:
// one PCIe crossing and a persist, no host thread (§3.5).
func (n *NICFS) pmWrite(p *sim.Proc, dst int64, data []byte) {
	m := n.cl.Machines[n.machine]
	m.PCIe.Transfer(p, len(data), 0)
	m.PM.WritePersist(p, dst, data)
}

// epochPMOff stores the persisted epoch inside the superblock's block
// (bytes 128.. are unused by fs).
const epochPMOff = 256

// PeerDown implements cluster.Member.
func (n *NICFS) PeerDown(p *sim.Proc, name string) {
	// Leases arbitrated by this node for clients of the failed node expire.
	n.leases.ExpireHolder(name)
	// Chunks waiting on the dead replica's acks complete against the
	// reconfigured chain. Slots are visited in order: resweeps emit
	// completion events, so the sweep sequence must be deterministic.
	for _, slot := range n.clientSlots() {
		n.clients[slot].advanceAcked(p)
	}
}

// clientSlots returns the attached client slots in increasing order, for
// deterministic iteration over the clients map.
func (n *NICFS) clientSlots() []int {
	slots := make([]int, 0, len(n.clients))
	for slot := range n.clients {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

// PeerUp implements cluster.Member.
func (n *NICFS) PeerUp(p *sim.Proc, name string) {}

// Start registers services and launches the NICFS processes; the low-latency
// class's (§3.3.2) are lanes, each started by its connection's first message.
func (n *NICFS) Start() {
	const bulkWorkers = 4
	m := n.cl.Machines[n.machine]
	n.lanes = make(map[*rdma.Conn]*sim.Queue[*rdma.Msg])
	m.Port.RegisterPerConn(svcLow, n.lane)
	m.Port.Register(svcBulk, n.bulkQ)
	m.NICPort.RegisterPerConn(svcLow, n.lane)
	m.NICPort.Register(svcBulk, n.bulkQ)
	n.kwConn = rdma.Dial(m.NICPort, m.HostPort, kworkerService, true)

	env := n.cl.Env
	n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-low", n.holdLowCore))
	for i := 0; i < bulkWorkers; i++ {
		n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-bulk", n.runBulk))
	}
	n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-detector", n.runDetector))
	n.procs = append(n.procs, env.Go(n.Name()+"/nicfs-leases", n.runLeasePersister))
}

// peer returns (dialing lazily) the bulk connection to machine i's NICFS.
func (n *NICFS) peer(i int, low bool) *rdma.Conn {
	cache := n.peerBulk
	svc := svcBulk
	if low {
		cache = n.peerLow
		svc = svcLow
	}
	if c, ok := cache[i]; ok {
		return c
	}
	c := rdma.Dial(n.cl.Machines[n.machine].Port, n.cl.Machines[i].Port, svc, low)
	cache[i] = c
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
		n.procs = append(n.procs, n.cl.Env.Go(n.Name()+"/nicfs-low", func(p *sim.Proc) { n.runLane(p, q) }))
	}
	return q
}

// runLane serves one low-latency connection in arrival order — a queue pair's
// guarantee, and what keeps a replica's cumulative acks in order — beside the
// other connections' lanes, dispatching on the reserved core if no lane is on
// it and else on the pool, ahead of bulk work. Cheap operations are served
// inline; fsync spawns a handler so one slow sync cannot head-of-line block
// lease traffic. What Crash finds queued is left to the callers' deadlines.
func (n *NICFS) runLane(p *sim.Proc, q *sim.Queue[*rdma.Msg]) {
	defer q.Close()
	cpu, cost := n.cl.Machines[n.machine].NICCPU, n.cl.Cfg.Spec.NICRPCCost
	for {
		msg, ok := q.Get(p)
		if !ok {
			return
		}
		if core := n.lowCore; core != nil {
			n.lowCore = nil
			core.Run(p, cost, "nicfs")
			n.lowCore = core
		} else {
			cpu.Compute(p, cost, 10, "nicfs")
		}
		switch msg.Op {
		case "attach":
			n.handleAttach(p, msg)
		case "open":
			n.handleOpen(p, msg)
		case "lease-acquire":
			n.handleLeaseAcquire(p, msg)
		case "lease-release":
			req := msg.Arg.(*leaseReq)
			n.leases.Release(req.Ino, req.Client)
			msg.Respond(p, true, 8)
		case "fsync":
			req := msg.Arg.(*fsyncReq)
			n.cl.Env.Go(n.Name()+"/fsync", func(hp *sim.Proc) {
				n.handleFsync(hp, msg, req)
			})
		case "repl-chunk-batch", "repl-direct":
			// Sync-path replication arrives on the low-latency class.
			n.routeMirror(p, msg)
		case "repl-ack":
			// Sync-path acknowledgments also ride the low-latency class.
			n.handleReplAck(p, msg.Arg.(*replAck))
		default:
			msg.RespondErr(p, fmt.Errorf("nicfs: unknown low-lat op %q", msg.Op))
		}
	}
}

// runBulk serves the high-throughput connection class.
func (n *NICFS) runBulk(p *sim.Proc) {
	spec := n.cl.Cfg.Spec
	for {
		msg, ok := n.bulkQ.Get(p)
		if !ok {
			return
		}
		n.nicCompute(p, spec.NICRPCCost)
		switch msg.Op {
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
		case "repl-chunk-batch", "repl-direct":
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
			msg.RespondErr(p, fmt.Errorf("nicfs: unknown bulk op %q", msg.Op))
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
	for _, slot := range n.clientSlots() {
		if cs := n.clients[slot]; cs.id == holder {
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
	n.pmWrite(p, leaseJournalOff, leaseRecordZero[:])
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
		_, err, replied := n.kwConn.CallTimeout(p, "probe", nil, 8, interval/2, nil, nil)
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

// handleReplAck advances a replica's cumulative watermark on the primary.
func (n *NICFS) handleReplAck(p *sim.Proc, ack *replAck) {
	n.AckMsgs++
	cs := n.clients[ack.Slot]
	if cs == nil {
		n.StaleAcks++
		n.cl.Robust.StaleAcks++
		return
	}
	cs.ackChunk(p, ack)
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

// publishItems makes publication's copies, PM to PM on the host and off every
// ack path: via the kernel worker, or directly over PCIe when the worker is
// down. A kernel worker that dies mid-copy is retried through the PCIe path —
// publication is idempotent.
// Returns true when a timed-out kernel worker may still read the item
// buffers: the caller must not recycle them until onDiscard fires (the
// worker's late response was discarded, so it is done with the buffers) —
// and must leak them if it never does.
func (n *NICFS) publishItems(p *sim.Proc, items []copyItem, onDiscard func(p *sim.Proc)) bool {
	retained := false
	if !n.Isolated {
		_, err, replied := n.kwConn.CallTimeout(p, "copy", &copyReq{Items: items},
			64*len(items), 50*time.Millisecond, nil, onDiscard)
		if replied && err == nil {
			return false
		}
		retained = !replied
		n.Isolated = true
	}
	// Isolated operation: NICFS writes across PCIe itself.
	for _, it := range items {
		n.pmWrite(p, it.Dst, it.Data)
	}
	return retained
}

// Crash takes the NICFS down (SmartNIC failure injection for tests).
func (n *NICFS) Crash() {
	if n.down {
		return
	}
	n.down = true
	m := n.cl.Machines[n.machine]
	m.Port.Unregister(svcLow)
	m.Port.Unregister(svcBulk)
	m.NICPort.Unregister(svcLow)
	m.NICPort.Unregister(svcBulk)
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
	n.bulkQ.Close()
}

// NICMem flow-control watermarks (§4): replication pauses above the high
// and resumes below the low utilization of SmartNIC memory.
const (
	memHighWatermark = 0.7
	memLowWatermark  = 0.3
)

// memReserve blocks until SmartNIC memory can hold n more bytes under the
// high watermark; memRelease frees and wakes waiters once utilization
// drops below the low watermark (§4 replication flow control).
func (n *NICFS) memReserve(p *sim.Proc, bytes int64) {
	mem := n.cl.Machines[n.machine].NICMem
	for {
		if mem.Utilization() <= memHighWatermark && mem.Alloc(bytes) {
			return
		}
		ev := n.memFreed
		p.Wait(ev)
	}
}

func (n *NICFS) memRelease(bytes int64) {
	mem := n.cl.Machines[n.machine].NICMem
	mem.Free(bytes)
	if mem.Utilization() < memLowWatermark {
		n.memFreed.Trigger(nil)
		n.memFreed = sim.NewEvent(n.cl.Env)
	}
}
