package core

import (
	"fmt"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/pipeline"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// chunk is the pipeline unit: a contiguous, entry-aligned range of one
// client's log (§3.1 "LineFS chunk"). Chunks recycle through a per-client
// freelist once fully published and replicated: the raw, compression, and
// touched buffers keep their capacity across reuse so the steady-state hot
// path allocates nothing.
type chunk struct {
	cs       *clientState
	from, to uint64

	raw     []byte // pooled: grown once, reused across chunks
	entries []*fs.Entry
	touched []touched // pooled

	// The compression stage codes raw one sub-block at a time, in index
	// order: cbuf collects the LZW streams back to back and zipLens their
	// lengths (both pooled). Sealing the chunk makes subLens zipLens (and
	// cbuf the wire payload) if that saves wire bytes, and leaves it nil
	// (the chunk travels raw) if not.
	cbuf    []byte
	zipLens []uint32
	subLens []uint32

	memHeld int64

	// sync marks fsync-path chunks (transferred on the low-latency class);
	// started guards against double-processing when fsyncs overlap.
	sync    bool
	started bool

	sent       *sim.Event
	published  *sim.Event
	replicated *sim.Event
	sentAt     sim.Time // set by transmit
	valid      bool
	// retained marks buffers possibly still referenced by a timed-out
	// kernel-worker copy; such a chunk is leaked instead of recycled.
	retained bool
	dropped  int64 // bytes removed by coalescing
}

// clientState is the primary-side NICFS state for one LibFS client.
type clientState struct {
	n    *NICFS
	slot int
	id   string
	log  *fs.LogArea

	// queued is the log offset up to which chunks have been formed;
	// pubNext the offset publication has applied through; repOff the
	// offset fully acknowledged by all replicas.
	queued  uint64
	pubNext uint64
	repOff  uint64
	ackSent uint64

	// pending holds incomplete chunks in order, drained by the completion
	// process for reclaim.
	pending  []*chunk
	compKick *sim.Event

	// pubBuf reorders chunks arriving at the publish stage (the fsync path
	// can inject chunks around the async pipeline).
	pubBuf map[uint64]*chunk

	// The sender serializes chain transfers: stages enqueue finished chunks
	// on xferQ in any order, xferBuf reorders them by log offset, and the
	// sendNext cursor walks them contiguously, coalescing backlog into
	// replChunkBatch messages (bounded by repBatchChunks/repBatchBytes).
	xferQ    *sim.Queue[*chunk]
	xferBuf  map[uint64]*chunk
	sendNext uint64
	batch    sendRun

	// Chain geometry is static per slot; cache it so the ack path does not
	// allocate. ackWater[i] is the cumulative watermark acknowledged by
	// chain position i (replicas only, position 0 is this primary);
	// repPending is the ordered deque of sent-but-unreplicated chunks the
	// watermark advances over.
	chain      []int
	chainNames []string
	ackWater   []uint64
	repPending []*chunk
	// ackTook is the chain's last send-to-ack time, for a chunk of ackedBytes.
	ackTook    time.Duration
	ackedBytes int64

	// freeCk is the chunk freelist fed by runCompletion.
	freeCk []*chunk

	// repWait tracks procs waiting for replication to reach an offset.
	repWait []repWaiter

	// fault records the first unrecoverable publication/validation error;
	// subsequent fsyncs surface it instead of blocking (e.g. ENOSPC in the
	// public area).
	fault error

	// enc is the compression-stage LZW dictionary, reused across
	// sub-blocks (every call starts a fresh dictionary). A chunk is coded
	// without yielding to the scheduler, so one encoder is safe even with
	// several compress-stage workers.
	enc compress.Encoder

	mainPl *pipeline.Pipeline[*chunk]
	repPl  *pipeline.Pipeline[*chunk]
	pubPl  *pipeline.Pipeline[*chunk]

	// seqPl is the LineFS-NotParallel path: one worker does every stage.
	seqQ *sim.Queue[*chunk]

	clientConn *rdma.Conn // NICFS -> LibFS service (reclaim, revoke)

	procs []*sim.Proc
}

type repWaiter struct {
	off uint64
	ev  *sim.Event
}

func newClientState(n *NICFS, slot int, id string, la *fs.LogArea) *clientState {
	cs := &clientState{
		n:        n,
		slot:     slot,
		id:       id,
		log:      la,
		compKick: sim.NewEvent(n.cl.Env),
		pubBuf:   make(map[uint64]*chunk),
		xferQ:    sim.NewQueue[*chunk](n.cl.Env, 0),
		xferBuf:  make(map[uint64]*chunk),
	}
	cs.chain = n.cl.Chain(n.machine)
	cs.chainNames = make([]string, len(cs.chain))
	for i, mi := range cs.chain {
		cs.chainNames[i] = n.cl.Machines[mi].Name
	}
	cs.ackWater = make([]uint64, len(cs.chain))
	env := n.cl.Env
	cfg := n.cl.Cfg
	if cfg.Parallel {
		// The ingress queue must never block the NICFS bulk workers (they
		// also drain replication acks); backpressure comes from the NICMem
		// flow-control watermarks in the fetch stage (§4). Worker growth
		// draws from the NICFS-wide budget shared across every client's
		// pipelines (the SmartNIC's cores are one pool).
		plCfg := pipeline.Config{QueueCap: 1 << 20, ScaleThreshold: 5, Budget: n.plBudget}
		cs.mainPl = pipeline.New(env, id+"/main", plCfg,
			pipeline.Stage[*chunk]{Name: "fetch", MinWorkers: 1, MaxWorkers: 2, Work: cs.stageFetch},
			pipeline.Stage[*chunk]{Name: "validate", MinWorkers: 1, MaxWorkers: 4, Work: cs.stageValidate},
			pipeline.Stage[*chunk]{Name: "split", InOrder: true, Work: cs.stageSplit},
		)
		repStages := []pipeline.Stage[*chunk]{}
		if cfg.Compress {
			repStages = append(repStages, pipeline.Stage[*chunk]{
				Name: "compress", MinWorkers: 1, MaxWorkers: cfg.Spec.NICCores, Work: cs.stageCompress,
			})
		}
		repStages = append(repStages, pipeline.Stage[*chunk]{Name: "transfer", Work: cs.stageTransfer})
		cs.repPl = pipeline.New(env, id+"/rep", plCfg, repStages...)
		cs.pubPl = pipeline.New(env, id+"/pub", plCfg,
			pipeline.Stage[*chunk]{Name: "publish", InOrder: true, Work: cs.stagePublish},
		)
	} else {
		cs.seqQ = sim.NewQueue[*chunk](env, 0)
		cs.procs = append(cs.procs, env.Go(id+"/seq", cs.runSequential))
	}
	cs.procs = append(cs.procs, env.Go(id+"/sender", cs.runSender))
	cs.procs = append(cs.procs, env.Go(id+"/completion", cs.runCompletion))
	cs.procs = append(cs.procs, env.Go(id+"/retransmit", cs.runRetransmit))
	return cs
}

// The survival layers' numbers (DESIGN.md §12 says where each comes from).
const (
	resendFloor = 10 * time.Millisecond // shortest resend interval, and how often a slot is looked at
	rpcDeadline = 25 * time.Millisecond // attach, open, lease: microsecond RPCs
	standstill  = time.Second           // no progress for a default heartbeat, where nothing observed says otherwise
)

// resendEvery is how long the oldest pending chunk may wait for its ack with
// owed bytes in flight: four times what the chain last took over a chunk of
// ackedBytes, and no less than resendFloor. With more in flight than was
// timed it is scaled up by size — an overestimate whenever part of the time
// is per message, so a 4 KiB fsync's round trip errs on the long side for
// the 4 MiB chunk behind it — but to no more than standstill, which is what
// the unobserved gets, and every chunk before the first ack.
func resendEvery(owed, ackedBytes int64, ackTook time.Duration) time.Duration {
	if ackedBytes == 0 {
		return standstill
	}
	every := 4 * ackTook
	if owed > ackedBytes {
		every = min(standstill, every*time.Duration(owed)/time.Duration(ackedBytes))
	}
	return max(resendFloor, every)
}

// runRetransmit is the replication retry layer: when the pending window has
// waited at the same cumulative-ack watermark for resendEvery since it was
// first seen there, the un-replicated chunks are resent down the chain.
// Resends are idempotent — a mirror that already persisted a range re-acks
// its watermark and drops the duplicate (re-forwarding it, in case the lost
// frame was a mid-chain hop's forward) — and the interval backs off
// exponentially while no progress is made, so a long partition does not
// flood the fabric. Chunk buffers stay alive until replication completes,
// so resending reuses them without copies.
func (cs *clientState) runRetransmit(p *sim.Proc) {
	var stuckAt uint64 // where the window was last seen waiting,
	var since sim.Time // and since when: zero while nothing is owed
	backoff := time.Duration(1)
	for {
		p.Sleep(resendFloor)
		water, any := cs.aliveWater()
		switch now := p.Now(); {
		case len(cs.repPending) == 0 || !any:
			// No live replica: advanceAcked already completes chunks against
			// the reconfigured (empty) chain; nothing to resend to.
			since = 0
		case since == 0 || water != stuckAt:
			stuckAt, since, backoff = water, now, 1
		case time.Duration(now-since) >= backoff*resendEvery(cs.n.inFlight(), cs.ackedBytes, cs.ackTook):
			cs.resendPending(p)
			since, backoff = now, min(2*backoff, 8)
		}
	}
}

// inFlight is the raw bytes sent down the chain and not yet acked, over all
// this NIC's clients: they share its wire and the replicas' cores.
func (n *NICFS) inFlight() (bytes int64) {
	for _, cs := range n.clients {
		for _, ck := range cs.repPending {
			bytes += int64(len(ck.raw))
		}
	}
	return bytes
}

// resendPending re-ships every un-replicated pending chunk, coalescing
// contiguous runs into messages bounded exactly like the first transmission.
// Each message's run is gathered without yielding; transmit blocks, and acks
// arriving meanwhile pop (and nil out) the deque's front, so no index into
// repPending survives a send — only the log-offset cursor does.
func (cs *clientState) resendPending(p *sim.Proc) {
	var run sendRun
	for next := uint64(0); ; run.reset() {
		for _, ck := range cs.repPending {
			fresh := ck.from >= next && !ck.replicated.Triggered()
			if k := len(run.cks); k > 0 && (!fresh || run.cks[k-1].to != ck.from) {
				break
			}
			if fresh && run.add(ck) {
				break
			}
		}
		if len(run.cks) == 0 {
			return
		}
		next = run.cks[len(run.cks)-1].to
		_ = cs.transmit(p, &run, 0)
		cs.n.cl.Robust.RepResends++
	}
}

func (cs *clientState) kill() {
	if cs.mainPl != nil {
		cs.mainPl.Kill()
		cs.repPl.Kill()
		cs.pubPl.Kill()
	}
	if cs.seqQ != nil {
		cs.seqQ.Close()
	}
	cs.xferQ.Close()
	for _, p := range cs.procs {
		p.Kill()
	}
	cs.procs = nil
}

// notifyClient sends a one-way message to the owning LibFS host service.
func (cs *clientState) notifyClient(p *sim.Proc, op string, arg any, size int) {
	if cs.clientConn == nil {
		m := cs.n.cl.Machines[cs.n.machine]
		cs.clientConn = rdma.Dial(m.NICPort, m.HostPort, clientService(cs.slot), true)
	}
	_ = cs.clientConn.Send(p, op, arg, size)
}

func clientService(slot int) string { return fmt.Sprintf("client%d", slot) }

// getChunk pops a recycled chunk (or makes one) and resets it for the
// range [from, to). Completion events are fresh per use: old waiters hold
// the previous incarnation's events, which stay triggered.
func (cs *clientState) getChunk(from, to uint64, sync bool) *chunk {
	var ck *chunk
	if k := len(cs.freeCk); k > 0 {
		ck = cs.freeCk[k-1]
		cs.freeCk[k-1] = nil
		cs.freeCk = cs.freeCk[:k-1]
	} else {
		ck = &chunk{}
	}
	env := cs.n.cl.Env
	// Everything resets except the pooled buffers.
	*ck = chunk{
		cs: cs, from: from, to: to, sync: sync,
		raw: ck.raw[:0], cbuf: ck.cbuf[:0], zipLens: ck.zipLens[:0], touched: ck.touched[:0],
		sent: sim.NewEvent(env), published: sim.NewEvent(env), replicated: sim.NewEvent(env),
	}
	return ck
}

// putChunk returns a completed chunk to the freelist. Entries borrow raw,
// so they are dropped here — the buffers themselves keep their capacity.
func (cs *clientState) putChunk(ck *chunk) {
	if ck.retained || len(cs.freeCk) >= 64 {
		return
	}
	ck.entries = nil
	ck.subLens = nil
	cs.freeCk = append(cs.freeCk, ck)
}

// growBuf returns a length-n buffer, reusing b's backing array when it is
// large enough.
//
//linefs:hotpath
func growBuf(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// formChunk turns the log range [queued, head), entry-aligned at both ends,
// into one chunk — none when head is already queued — and, unless it is the
// fsync path's, submits it to the pipelines. Formation is atomic in
// simulation (no blocking between reading and advancing queued), so the
// fsync path and the async path never form overlapping chunks.
func (cs *clientState) formChunk(p *sim.Proc, head uint64, sync bool) {
	if cs.queued >= head {
		return
	}
	ck := cs.getChunk(cs.queued, head, sync)
	cs.queued = head
	cs.pending = append(cs.pending, ck)
	cs.compKick.Trigger(nil)
	cs.compKick = sim.NewEvent(cs.n.cl.Env)
	switch {
	case sync: // the fsync handler runs it itself
	case cs.mainPl != nil:
		cs.mainPl.Submit(p, ck)
	default:
		cs.seqQ.Put(p, ck)
	}
}

// stageFetch pulls the chunk's raw log bytes from host PM into SmartNIC
// memory across PCIe (one-sided read through the NIC switch), under the
// memory flow-control watermarks.
func (cs *clientState) stageFetch(p *sim.Proc, ck *chunk) bool {
	n := cs.n
	start := p.Now()
	size := int64(ck.to - ck.from)
	n.memReserve(p, size)
	ck.memHeld = size

	m := n.cl.Machines[n.machine]
	// One-sided read through the NIC switch: the NIC's read engine is the
	// bottleneck; PM reads and the NIC DRAM placement stream behind it.
	m.Fetch.Transfer(p, int(size), 0)
	ck.raw = growBuf(ck.raw, int(size))
	cs.log.ReadRawInto(fs.NoCostCtx(m.PM), ck.from, ck.raw)
	n.StageTimes["fetch"].add(time.Duration(p.Now() - start))
	return true
}

// stageValidate decodes the chunk, verifies CRCs and sequence continuity,
// checks lease ownership for every update, coalesces superseded entries,
// and records namespace history for the current epoch (§3.3.1, §3.4).
func (cs *clientState) stageValidate(p *sim.Proc, ck *chunk) bool {
	n := cs.n
	start := p.Now()
	spec := n.cl.Cfg.Spec
	// Scan cost across the wimpy cores.
	n.nicCompute(p, validateCost(len(ck.raw), spec.ValidatePerMiB))

	entries, err := fs.DecodeAll(ck.raw)
	if err != nil {
		// Corrupt chunk: reject; the client's log is not reclaimed and the
		// fault is surfaced on its next fsync.
		cs.failChunk(p, ck, err)
		return false
	}
	if len(entries) > 0 {
		if err := fs.ValidateSeq(entries, entries[0].Seq); err != nil {
			cs.failChunk(p, ck, err)
			return false
		}
	}
	// Lease ownership: published log entries are accepted only when the
	// client held the right leases (§3.4). Enforcement here covers file
	// data (single-writer): a lapsed lease with no competing holder is
	// renewed in place rather than rejecting a write that was legal when
	// logged. Namespace operations were serialized by the client-side
	// parent-directory lease at log time; the directory lease may have
	// legitimately moved on by publication time (revocation), so they are
	// checked structurally during application instead.
	n.nicCompute(p, time.Duration(len(entries))*spec.LeaseCheckCost)
	for _, e := range entries {
		if e.Type != fs.OpWrite && e.Type != fs.OpTruncate {
			continue
		}
		if !n.leases.Holds(e.Ino, cs.id, lease.Write) {
			if ok, _ := n.leases.Acquire(e.Ino, cs.id, lease.Write); !ok {
				cs.failChunk(p, ck, fmt.Errorf("nicfs: validation: write lease on inode %d lost", e.Ino))
				return false
			}
		}
	}
	kept, dropped := entries, int64(0)
	if !n.cl.Cfg.DisableCoalesce {
		kept, dropped = fs.Coalesce(entries)
	}
	//lint:allow borrowcheck ck.entries borrows ck.raw, which the chunk keeps alive through publish
	ck.entries = kept
	ck.dropped = dropped
	n.CoalescedBytes += dropped
	ck.valid = true
	ck.touched = appendTouched(ck.touched[:0], kept)
	n.recordHistory(n.epoch, ck.touched)
	n.StageTimes["validate"].add(time.Duration(p.Now() - start))
	return true
}

// appendTouched appends one namespace-history record per entry to dst,
// reusing dst's capacity (the chunk's pooled touched slice).
//
//linefs:hotpath
func appendTouched(dst []touched, entries []*fs.Entry) []touched {
	for _, e := range entries {
		switch e.Type {
		case fs.OpCreate, fs.OpMkdir:
			typ := fs.TypeFile
			if e.Type == fs.OpMkdir {
				typ = fs.TypeDir
			}
			dst = append(dst, touched{Ino: e.Ino, PIno: e.PIno, Name: e.Name, Type: typ})
		case fs.OpUnlink, fs.OpRmdir:
			dst = append(dst, touched{Ino: e.Ino, PIno: e.PIno, Name: e.Name, Gone: true})
		case fs.OpRename:
			dst = append(dst, touched{Ino: e.Ino, PIno: e.PIno2, Name: e.Name2})
		case fs.OpWrite, fs.OpTruncate:
			dst = append(dst, touched{Ino: e.Ino})
		}
	}
	return dst
}

// stageSplit hands the validated chunk to both the publishing and the
// replication pipelines (they share the fetch and validation work, §3.3).
// It is mainPl's last stage and the fsync handler's hand-off for its sync
// chunk, which may therefore arrive ahead of its predecessors: pubBuf and
// xferBuf put it back in log order.
func (cs *clientState) stageSplit(p *sim.Proc, ck *chunk) bool {
	cs.pubPl.Submit(p, ck)
	cs.repPl.Submit(p, ck)
	return false // split consumes the item in the main pipeline
}

// stageCompress LZW-codes the chunk, sub-block by sub-block, and keeps the
// result if it pays off (§3.3.2). The bytes are produced here, in index
// order, before the worker first yields, so the payload does not depend on
// the schedule; the time they cost is then spread over the SmartNIC's cores
// (codeAcrossCores), because one wimpy core codes a 4 MiB chunk in 70 ms.
func (cs *clientState) stageCompress(p *sim.Proc, ck *chunk) bool {
	ck.zipAll(&cs.enc)
	cs.n.codeAcrossCores(p, len(ck.raw), cs.n.cl.Cfg.Spec.CompressBW)
	return true
}

// codeAcrossCores charges the LZW time of one chunk of rawLen bytes, at bw
// bytes per second of a full-speed core, to the SmartNIC's cores: one
// helper process per sub-block, all started together, and the caller
// resumes when the last has finished (so a chunk takes one sub-block's
// time, or its whole time divided by the cores when it has more sub-blocks
// than there are cores — never a number of rounds that jumps with the
// sub-block count). The NIC codes one chunk at a time, first come first
// served across its clients and mirrors (codecGate): finishing chunks one
// after the other hands each to the next hop sooner than time-slicing the
// cores between several, and it keeps the clients' chunks apart on the
// chain instead of letting them collide at every hop.
//
// The helpers die with the caller: when a NICFS crash kills it mid-chunk,
// its unwinding kills them and frees the gate.
func (n *NICFS) codeAcrossCores(p *sim.Proc, rawLen int, bw float64) {
	env := n.cl.Env
	n.codecGate.Acquire(p, 0)
	helpers := make([]*sim.Proc, subBlocks(rawLen))
	defer func() {
		for _, h := range helpers {
			h.Kill()
		}
		n.codecGate.Release()
	}()
	n.codecPeak = max(n.codecPeak, len(helpers))
	left := len(helpers)
	done := sim.NewEvent(env)
	for i := range helpers {
		lo, hi := subBlockSpan(rawLen, i)
		helpers[i] = env.Go(n.Name()+"/codec", func(hp *sim.Proc) {
			n.nicCompute(hp, codecCost(hi-lo, bw))
			if left--; left == 0 {
				done.Trigger(nil)
			}
		})
	}
	if left > 0 {
		p.Wait(done)
	}
}

// CompressPeakWorkers returns the most SmartNIC threads that have coded one
// chunk at once on this node: 0 without compression, 1 for
// LineFS-NotParallel's one thread.
func (n *NICFS) CompressPeakWorkers() int {
	cfg := n.cl.Cfg
	switch {
	case !cfg.Compress:
		return 0
	case !cfg.Parallel:
		return 1
	}
	return n.codecPeak
}

// compressInline is the compress stage on one thread (LineFS-NotParallel):
// the same sub-blocks, coded back to back.
func (cs *clientState) compressInline(p *sim.Proc, ck *chunk) {
	ck.zipAll(&cs.enc)
	cs.n.nicCompute(p, codecCost(len(ck.raw), cs.n.cl.Cfg.Spec.CompressBW))
}

// zipAll codes every sub-block of ck in turn and seals it.
func (ck *chunk) zipAll(enc *compress.Encoder) {
	for i := 0; i < subBlocks(len(ck.raw)); i++ {
		ck.cbuf, ck.zipLens = zipSubBlock(enc, ck.cbuf, ck.zipLens, ck.raw, i)
	}
	ck.seal()
}

// seal decides, once every sub-block is coded, whether the chunk travels
// compressed: only if streams plus table are smaller than the raw bytes.
func (ck *chunk) seal() {
	if len(ck.cbuf)+subLenBytes*len(ck.zipLens) < len(ck.raw) {
		ck.subLens = ck.zipLens
	}
}

// zipSubBlock LZW-codes sub-block i of raw onto the end of dst and records
// the stream's length in lens. dst and lens are the chunk's pooled
// compression buffers: the output is retained through replication, so each
// chunk owns its own, reused across pool incarnations. Pure codec work; the
// caller charges the virtual-time cost.
//
//linefs:hotpath
func zipSubBlock(enc *compress.Encoder, dst []byte, lens []uint32, raw []byte, i int) ([]byte, []uint32) {
	if len(lens) != i {
		panic("core: sub-blocks coded out of index order")
	}
	lo, hi := subBlockSpan(len(raw), i)
	at := len(dst)
	dst = enc.CompressInto(dst, raw[lo:hi])
	lens = append(lens, uint32(len(dst)-at))
	return dst, lens
}

// codecCost is the single-core time to push n raw bytes through LZW at bw
// bytes per second of a full-speed core; nicCompute stretches it by
// NICSpeed, so a SmartNIC core really codes at 0.30 × bw (60 MB/s
// compressing, 120 MB/s decompressing — EXPERIMENTS.md "Known modeling
// deviations").
func codecCost(n int, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// stagePublish applies chunks to the public area in log order, buffering
// out-of-order arrivals (the fsync path can inject chunks directly).
func (cs *clientState) stagePublish(p *sim.Proc, ck *chunk) bool {
	cs.pubBuf[ck.from] = ck
	for {
		next, ok := cs.pubBuf[cs.pubNext]
		if !ok {
			return false
		}
		delete(cs.pubBuf, cs.pubNext)
		cs.publishChunk(p, next)
		cs.pubNext = next.to
	}
}

// publishChunk applies one chunk's entries: metadata updates run on the
// SmartNIC (indexes cached in NIC DRAM, writes across PCIe); data movement
// is delegated to the host kernel worker's DMA engine, or performed across
// PCIe directly in isolated mode (§3.3.1, §3.5).
func (cs *clientState) publishChunk(p *sim.Proc, ck *chunk) {
	n := cs.n
	start := p.Now()
	defer func() {
		n.StageTimes["publish"].add(time.Duration(p.Now() - start))
		ck.published.Trigger(nil)
	}()
	if !ck.valid {
		return
	}
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	var items []copyItem
	cp := func(dst int64, src []byte) {
		items = append(items, copyItem{Dst: dst, Data: src})
	}
	if err := n.vol.ApplyAll(ctx, ck.entries, cp); err != nil {
		// Publication cannot proceed (e.g. the public area is out of
		// space). Record the fault and unblock waiters; the client sees an
		// error on its next fsync.
		ck.valid = false
		if cs.fault == nil {
			cs.fault = err
		}
		cs.advanceRep(p, ck)
		return
	}
	var total int
	for _, it := range items {
		total += len(it.Data)
	}
	n.PubBytes += int64(total)
	if len(items) == 0 {
		return
	}
	if n.publishItems(p, items, nil) {
		// The timed-out kernel worker may still read these item buffers,
		// which alias ck.raw: leak the chunk instead of recycling it.
		ck.retained = true
	}
}

// stageTransfer hands the chunk to the sender, which restores log order and
// batches the chain transfer.
func (cs *clientState) stageTransfer(p *sim.Proc, ck *chunk) bool {
	cs.xferQ.Put(p, ck)
	return false
}

// runSender is the per-client chain transmit loop: it drains every chunk
// already queued (so a backlog coalesces), reorders by log offset, and
// pumps contiguous chunks onto the wire in batches.
func (cs *clientState) runSender(p *sim.Proc) {
	for {
		ck, ok := cs.xferQ.Get(p)
		if !ok {
			return
		}
		cs.xferBuf[ck.from] = ck
		for {
			more, ok := cs.xferQ.TryGet()
			if !ok {
				break
			}
			cs.xferBuf[more.from] = more
		}
		cs.pumpSends(p)
	}
}

// pumpSends walks the send cursor over contiguous queued chunks, coalescing
// them into batches (doorbell batching: one wire message per backlog burst,
// bounded by sendRun.add). The open batch flushes in the same pass, without
// a yield, once the cursor finds nothing queued behind it, so batching never
// adds latency, to an fsync-path chunk or any other: it only amortizes
// per-message overhead a backlog would pay anyway. Invalid chunks and
// replica-less configurations pass through without a wire message, keeping
// the cursor contiguous.
func (cs *clientState) pumpSends(p *sim.Proc) {
	for {
		ck, ok := cs.xferBuf[cs.sendNext]
		if !ok {
			cs.flushBatch(p)
			return
		}
		delete(cs.xferBuf, cs.sendNext)
		cs.sendNext = ck.to
		if !ck.valid || len(cs.chain) == 1 {
			// Flush first so chain order is preserved, then complete the
			// chunk locally: it never goes on the wire.
			cs.flushBatch(p)
			ck.sent.Trigger(nil)
			cs.advanceRep(p, ck)
			continue
		}
		if cs.batch.add(ck) {
			cs.flushBatch(p)
		}
	}
}

// frame is ck as it goes on the wire: the raw bytes, or the sealed
// sub-block streams and their table. Payload, table and touched records are
// lent, not copied.
func (ck *chunk) frame() batchChunk {
	payload := ck.raw
	if len(ck.subLens) > 0 {
		payload = ck.cbuf
	}
	return batchChunk{
		From: ck.from, To: ck.to, Payload: payload, SubLens: ck.subLens,
		RawLen: len(ck.raw), Touched: ck.touched,
	}
}

// Wire-message bounds for the chain. 16 chunks amortize the per-message
// dispatch well past the point of diminishing returns; the byte cap keeps
// one message from monopolizing a hop's egress (and the next hop's NIC
// memory) when chunks are large — at the paper's 4 MB chunk size every
// message is a batch of one.
const (
	repBatchChunks = 16
	repBatchBytes  = 1 << 20
)

// sendRun accumulates contiguous chunks bound for one wire message.
type sendRun struct {
	cks   []*chunk
	bytes int // frame bytes on the wire
}

// add appends ck and reports whether the run must go on the wire now: a
// message is bounded both in chunks and in payload bytes (first transmission
// and retransmission share this one predicate). An fsync-path chunk takes
// along what is queued behind it; that it never waits is pumpSends' doing.
func (r *sendRun) add(ck *chunk) (full bool) {
	r.cks = append(r.cks, ck)
	r.bytes += ck.frame().wireLen()
	return len(r.cks) >= repBatchChunks || r.bytes >= repBatchBytes
}

func (r *sendRun) reset() {
	clear(r.cks)
	r.cks = r.cks[:0]
	r.bytes = 0
}

// transmit frames run as one replChunkBatch and posts it to the first
// replica; a batch of one is still a batch. Payloads and touched records
// are lent, not copied: chunk buffers stay alive until replication
// completes, which is also what lets a retransmission frame them again.
// Each chunk is stamped sentAt: now for a first transmission, zero for a
// resend, whose ack says nothing about how long the chain takes.
func (cs *clientState) transmit(p *sim.Proc, run *sendRun, sentAt sim.Time) error {
	n := cs.n
	msg := &replChunkBatch{
		Slot: cs.slot, Epoch: n.epoch, From: run.cks[0].from, To: run.cks[len(run.cks)-1].to,
		Chunks: make([]batchChunk, len(run.cks)),
	}
	for i, ck := range run.cks {
		msg.Sync = msg.Sync || ck.sync
		msg.Chunks[i] = ck.frame()
		ck.sentAt = sentAt
	}
	err := n.peer(cs.chain[1], msg.Sync).Send(p, "repl-chunk-batch", msg, run.bytes)
	n.RepMsgs++
	return err
}

// flushBatch ships the open batch down the chain as one wire message.
func (cs *clientState) flushBatch(p *sim.Proc) {
	if len(cs.batch.cks) == 0 {
		return
	}
	n := cs.n
	start := p.Now()
	for _, ck := range cs.batch.cks {
		n.RepBytes += int64(len(ck.raw))
	}
	n.RepWireBytes += int64(cs.batch.bytes)
	err := cs.transmit(p, &cs.batch, start)
	n.RepChunksSent += int64(len(cs.batch.cks))
	for _, ck := range cs.batch.cks {
		ck.sent.Trigger(nil)
		cs.repPending = append(cs.repPending, ck)
	}
	if err != nil {
		// Next hop unreachable: account the chunks as replicated so the
		// client is not blocked forever (degraded durability, as when a
		// chain is cut; the cluster manager repairs membership).
		for _, ck := range cs.batch.cks {
			cs.advanceRep(p, ck)
		}
	}
	cs.batch.reset()
	n.StageTimes["transfer"].add(time.Duration(p.Now() - start))
}

// ackChunk processes a replica's cumulative acknowledgment: advance that
// replica's watermark and complete every pending chunk covered by the
// minimum watermark across live replicas. An ack that names an unknown node
// or does not advance its watermark is stale (e.g. a late duplicate after a
// membership resweep) and is counted, not applied.
func (cs *clientState) ackChunk(p *sim.Proc, ack *replAck) {
	pos := -1
	for i := 1; i < len(cs.chainNames); i++ {
		if cs.chainNames[i] == ack.Node {
			pos = i
			break
		}
	}
	if pos < 0 || ack.To <= cs.ackWater[pos] {
		cs.n.StaleAcks++
		cs.n.cl.Robust.StaleAcks++
		return
	}
	cs.ackWater[pos] = ack.To
	if ck := cs.advanceAcked(p); ck != nil && ck.sentAt != 0 {
		cs.ackTook, cs.ackedBytes = time.Duration(p.Now()-ck.sentAt), int64(len(ck.raw))
	}
}

// aliveWater returns the minimum acknowledged watermark across replicas the
// cluster manager currently believes alive (a failed NICFS must not block
// durability acknowledgments — the manager has already reconfigured leases
// and membership around it); any=false means no replica is alive.
func (cs *clientState) aliveWater() (water uint64, any bool) {
	cl := cs.n.cl
	water = ^uint64(0)
	for i := 1; i < len(cs.chain); i++ {
		if !cl.Mgr.Alive(cs.chainNames[i]) {
			continue
		}
		any = true
		if cs.ackWater[i] < water {
			water = cs.ackWater[i]
		}
	}
	return water, any
}

// advanceAcked completes pending chunks from the front of the deque up to
// the minimum live-replica watermark: O(1) per completed chunk, no scan of
// the un-acked tail. It returns the oldest chunk it completed, if any.
func (cs *clientState) advanceAcked(p *sim.Proc) (first *chunk) {
	water, any := cs.aliveWater()
	for len(cs.repPending) > 0 {
		ck := cs.repPending[0]
		if !ck.replicated.Triggered() {
			if any && ck.to > water {
				break
			}
			cs.advanceRep(p, ck)
			if first == nil {
				first = ck
			}
		}
		cs.repPending[0] = nil
		cs.repPending = cs.repPending[1:]
	}
	return first
}

// failChunk rejects a chunk: the fault is recorded for the client and the
// chunk is routed through the sender so the send cursor stays contiguous
// (it left the pipeline at validation and would otherwise wedge every later
// chunk behind the gap).
func (cs *clientState) failChunk(p *sim.Proc, ck *chunk, err error) {
	ck.valid = false
	if cs.fault == nil {
		cs.fault = err
	}
	ck.published.Trigger(nil)
	cs.xferQ.Put(p, ck)
}

// advanceRep marks a chunk fully replicated and wakes fsync waiters.
func (cs *clientState) advanceRep(p *sim.Proc, ck *chunk) {
	ck.replicated.Trigger(nil)
	if ck.to > cs.repOff {
		cs.repOff = ck.to
	}
	kept := cs.repWait[:0]
	for _, w := range cs.repWait {
		if cs.repOff >= w.off {
			w.ev.Trigger(nil)
		} else {
			kept = append(kept, w)
		}
	}
	cs.repWait = kept
}

// waitReplicated blocks until everything before off is on all replicas.
func (cs *clientState) waitReplicated(p *sim.Proc, off uint64) {
	if cs.repOff >= off {
		return
	}
	ev := sim.NewEvent(cs.n.cl.Env)
	cs.repWait = append(cs.repWait, repWaiter{off: off, ev: ev})
	p.Wait(ev)
}

// runCompletion reclaims client log space once chunks are both published
// and replicated, in order, and recycles chunk buffers to the freelist
// (waiting for sent too: a chunk must have left the sender before reuse).
func (cs *clientState) runCompletion(p *sim.Proc) {
	for {
		for len(cs.pending) == 0 {
			p.Wait(cs.compKick)
		}
		ck := cs.pending[0]
		t0 := p.Now()
		p.Wait(ck.published)
		t1 := p.Now()
		p.Wait(ck.replicated)
		p.Wait(ck.sent)
		cs.n.stageAdd("wait-pub", time.Duration(t1-t0))
		cs.n.stageAdd("wait-rep", time.Duration(p.Now()-t1))
		cs.pending[0] = nil
		cs.pending = cs.pending[1:]
		if ck.memHeld > 0 {
			cs.n.memRelease(ck.memHeld)
			ck.memHeld = 0
		}
		if ck.valid && ck.to > cs.ackSent {
			cs.ackSent = ck.to
			// The SmartNIC-to-host acknowledgment is Figure 2's ACK stage.
			ackStart := p.Now()
			cs.notifyClient(p, "reclaim", &reclaimMsg{Slot: cs.slot, UpTo: ck.to}, 24)
			cs.n.StageTimes["ack"].add(time.Duration(p.Now() - ackStart))
		}
		cs.putChunk(ck)
	}
}

// runSequential is the LineFS-NotParallel datapath: one SmartNIC thread
// executes fetch, validation, publication and replication for each chunk
// back to back, with no overlap.
func (cs *clientState) runSequential(p *sim.Proc) {
	for {
		ck, ok := cs.seqQ.Get(p)
		if !ok {
			return
		}
		if cs.runInline(p, ck) {
			cs.waitReplicated(p, ck.to)
		}
	}
}

// runInline is LineFS-NotParallel's one thread: it executes every stage of
// one chunk back to back on the calling process and hands it to the sender.
// It reports false when validation rejected the chunk (failChunk has already
// routed it through the sender).
func (cs *clientState) runInline(p *sim.Proc, ck *chunk) bool {
	cs.stageFetch(p, ck)
	if !cs.stageValidate(p, ck) {
		return false
	}
	if cs.n.cl.Cfg.Compress {
		cs.compressInline(p, ck)
	}
	cs.stagePublish(p, ck)
	cs.xferQ.Put(p, ck)
	return true
}

// handleFsync implements fsync(): replicate everything through Head
// synchronously on the low-latency class, wait for lease persistence, and
// acknowledge (§3.3.2, §3.4).
func (n *NICFS) handleFsync(p *sim.Proc, msg *rdma.Msg, req *fsyncReq) {
	cs := n.clients[req.Slot]
	if cs == nil {
		msg.RespondErr(p, fmt.Errorf("nicfs: fsync for unknown slot %d", req.Slot))
		return
	}
	if req.Head > cs.queued {
		// The range goes as the client's pieces, so that piece k+1's fetch
		// overlaps piece k's trip down the chain — unless the codec wants it
		// whole, across the cores under one codecGate hold (pieces would each
		// take the gate alone), or LineFS-NotParallel's one thread takes it.
		// A retried request finds Head queued and forms nothing.
		if cfg := n.cl.Cfg; cfg.Parallel && !cfg.Compress {
			for _, cut := range req.Cuts {
				cs.formChunk(p, min(cut, req.Head), true)
			}
		}
		cs.formChunk(p, req.Head, true)
		// A sync chunk is fetched and validated here, on the handler's own
		// process, so that it does not queue in mainPl behind the client's
		// bulk chunks; from the split on it goes the way every chunk goes,
		// marked sync, on the low-latency connection. Local publication is not
		// waited for. runCompletion pops (and nils) cs.pending's front while
		// this loop blocks in a fetch, but never a slot at or ahead of the
		// cursor: completion is in log order, and the sync chunk at the
		// cursor, piece after piece, has not been sent.
		for _, ck := range cs.pending {
			if !ck.sync || ck.started {
				continue
			}
			ck.started = true
			if cs.mainPl == nil {
				cs.runInline(p, ck)
			} else if cs.stageFetch(p, ck) && cs.stageValidate(p, ck) {
				cs.stageSplit(p, ck)
			}
		}
	}
	cs.waitReplicated(p, req.Head)
	if cs.fault != nil {
		msg.RespondErr(p, cs.fault)
		return
	}
	// Leases granted before this fsync must be durable and replicated.
	if n.leasePending > 0 {
		p.Wait(n.leaseDrained)
	}
	msg.Respond(p, true, 8)
}

// validateCost scales the per-MiB validation cost to a byte count.
func validateCost(n int, perMiB time.Duration) time.Duration {
	return time.Duration(int64(n) * int64(perMiB) / (1 << 20))
}
