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
	// cbuf the wire payload, sum its frameSum) if that saves wire bytes, and
	// leaves it nil (the chunk travels raw) if not.
	cbuf    []byte
	zipLens []uint32
	subLens []uint32
	sum     uint32

	// sync marks fsync-path chunks (transferred on the low-latency class).
	sync bool

	sent       *sim.Event
	published  *sim.Event
	replicated *sim.Event
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

	// queued is the log offset up to which chunks have been formed; repOff
	// the offset fully acknowledged by all replicas.
	queued  uint64
	repOff  uint64
	ackSent uint64

	// pending holds incomplete chunks in order, drained by the completion
	// process for reclaim.
	pending  []*chunk
	compKick *sim.Event

	// pubs puts chunks arriving at the publish stage back in log order (the
	// fsync path can inject chunks around the async pipeline).
	pubs inOrder[*chunk]

	// Stages enqueue finished chunks on xferQ in any order; the sender
	// process hands them to snd, the slot's chain window, and executes what
	// it decides. chain is the slot's static chain of machines.
	xferQ *sim.Queue[*chunk]
	snd   *chainSender[*chunk]
	chain []int

	// freeCk is the chunk freelist fed by runCompletion.
	freeCk []*chunk
	// pubItems is publishChunk's copy list, reused unless a timed-out kernel
	// worker may still read it.
	pubItems []copyItem

	// repWait tracks procs waiting for replication to reach an offset.
	repWait []repWaiter

	// fault records the first unrecoverable publication/validation error;
	// subsequent fsyncs surface it instead of blocking (e.g. ENOSPC in the
	// public area).
	fault error

	// enc is the compression-stage LZW dictionary, reused across
	// sub-blocks (every call starts a fresh dictionary). The compress stage
	// has one worker, which codes a chunk without yielding to the
	// scheduler; codec parallelism is codeTime's sub-block helpers, which
	// only charge time.
	enc compress.Encoder

	// mainPl is fetch → validate, whose worker splits a chunk that passes to
	// pubPl and to repPl (compress, under Compress) or xferQ. Under
	// LineFS-NotParallel it is one stage doing all of it; the others are nil.
	mainPl *pipeline.Pipeline[*chunk]
	repPl  *pipeline.Pipeline[*chunk]
	pubPl  *pipeline.Pipeline[*chunk]

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
		xferQ:    sim.NewQueue[*chunk](n.cl.Env, 0),
		chain:    n.cl.Chain(n.machine),
	}
	cs.snd = &chainSender[*chunk]{water: make([]uint64, len(cs.chain)), dead: make([]bool, len(cs.chain))}
	for i, mi := range cs.chain[1:] {
		cs.snd.dead[i+1] = !n.cl.Mgr.Alive(n.cl.Machines[mi].Name)
	}
	env := n.cl.Env
	cfg := n.cl.Cfg
	// The queues are unbounded, so the lane that submits never blocks. What
	// the pipelines hold is bounded by the client log instead: a chunk's
	// bytes stay unreclaimed from formation to completion, and LibFS appends
	// no more than LogSize of them (DESIGN.md §11).
	if !cfg.Parallel {
		cs.mainPl = pipeline.New(env, id, pipeline.Config{},
			pipeline.Stage[*chunk]{Name: "seq", Work: cs.stageSeq})
	} else {
		cs.mainPl = pipeline.New(env, id+"/main", pipeline.Config{},
			pipeline.Stage[*chunk]{Name: "fetch", Work: cs.stageFetch},
			pipeline.Stage[*chunk]{Name: "validate", Work: cs.validateSplit})
		if cfg.Compress {
			cs.repPl = pipeline.New(env, id+"/rep", pipeline.Config{},
				pipeline.Stage[*chunk]{Name: "compress", Work: cs.compressSend})
		}
		cs.pubPl = pipeline.New(env, id+"/pub", pipeline.Config{},
			pipeline.Stage[*chunk]{Name: "publish", Work: cs.stagePublish})
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

// runRetransmit is the replication retry layer: every resendFloor it shows
// the window's timer the time, and resends the window when the timer says
// so (chainSender.tick). Chunk buffers stay alive until replication
// completes, so resending reuses them without copies.
func (cs *clientState) runRetransmit(p *sim.Proc) {
	for {
		p.Sleep(resendFloor)
		run := cs.snd.tick(time.Duration(p.Now()), cs.n.inFlight())
		for ; len(run) > 0; run = cs.snd.resend(run[len(run)-1].to) {
			_ = cs.transmit(p, run)
			cs.n.cl.Robust.RepResends++
		}
	}
}

// inFlight is the raw bytes sent down the chain and not yet acked, over all
// this NIC's clients: they share its wire and the replicas' cores.
func (n *NICFS) inFlight() (bytes int64) {
	for _, cs := range n.clients {
		bytes += cs.snd.owed
	}
	return bytes
}

func (cs *clientState) kill() {
	for _, pl := range []*pipeline.Pipeline[*chunk]{cs.mainPl, cs.repPl, cs.pubPl} {
		if pl != nil {
			pl.Kill()
		}
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
// into one chunk and returns it — nil when head is already queued — and,
// unless it is the fsync path's, submits it to mainPl. Formation is atomic
// in simulation (no blocking between reading and advancing queued), so the
// fsync path and the async path never form overlapping chunks.
func (cs *clientState) formChunk(p *sim.Proc, head uint64, sync bool) *chunk {
	if cs.queued >= head {
		return nil
	}
	ck := cs.getChunk(cs.queued, head, sync)
	cs.queued = head
	cs.pending = append(cs.pending, ck)
	cs.compKick.Trigger(nil)
	cs.compKick = sim.NewEvent(cs.n.cl.Env)
	if !sync { // the fsync handler runs its own
		cs.mainPl.Submit(p, ck)
	}
	return ck
}

// stageFetch pulls the chunk's raw log bytes from host PM into SmartNIC
// memory across PCIe (one-sided read through the NIC switch).
func (cs *clientState) stageFetch(p *sim.Proc, ck *chunk) bool {
	n := cs.n
	start := p.Now()
	size := int64(ck.to - ck.from)
	m := n.cl.Machines[n.machine]
	// One-sided read through the NIC switch: the NIC's read engine is the
	// bottleneck; PM reads and the NIC DRAM placement stream behind it. An
	// fsync's chunk preempts bulk fetches on it.
	m.Fetch.Transfer(p, int(size), rdma.ClassPrio(ck.sync))
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

// validateSplit is mainPl's validate stage and the fsync handler's for its
// sync chunks: a chunk that passes goes on by stageSplit, and leaves mainPl
// either way.
func (cs *clientState) validateSplit(p *sim.Proc, ck *chunk) bool {
	if cs.stageValidate(p, ck) {
		cs.stageSplit(p, ck)
	}
	return false
}

// stageSplit hands the validated chunk to both publication and replication
// (they share the fetch and validation work, §3.3): to pubPl, and to repPl
// to be compressed or straight to the sender. A sync chunk the fsync handler
// splits may arrive ahead of its predecessors: pubs and the window put it
// back in log order.
func (cs *clientState) stageSplit(p *sim.Proc, ck *chunk) {
	cs.pubPl.Submit(p, ck)
	if cs.repPl != nil {
		cs.repPl.Submit(p, ck)
	} else {
		cs.xferQ.Put(p, ck)
	}
}

// compressSend is repPl's one stage: compress, then hand to the sender.
func (cs *clientState) compressSend(p *sim.Proc, ck *chunk) bool {
	cs.stageCompress(p, ck)
	cs.xferQ.Put(p, ck)
	return false
}

// stageCompress LZW-codes the chunk, sub-block by sub-block, and keeps the
// result if it pays off (§3.3.2). The bytes are produced here, in index
// order, before the worker first yields, so the payload does not depend on
// the schedule; the time they cost is then charged by codeTime. It is also
// LineFS-NotParallel's compress step, from runInline.
func (cs *clientState) stageCompress(p *sim.Proc, ck *chunk) {
	ck.zipAll(&cs.enc)
	cs.n.codeTime(p, len(ck.raw), cs.n.cl.Cfg.Spec.CompressBW)
}

// codeTime charges the LZW time of one chunk of rawLen bytes, at bw bytes
// per second of a full-speed core, at either end of the chain. Under
// LineFS-NotParallel the caller's one thread codes it. Otherwise it goes to
// the SmartNIC's cores, because one wimpy core codes a 4 MiB chunk in 70 ms:
// one helper process per sub-block, all started together, and the caller
// resumes when the last has finished (so a chunk takes one sub-block's time,
// or its whole time divided by the cores when it has more sub-blocks than
// there are cores — never a number of rounds that jumps with the sub-block
// count). The NIC codes one chunk at a time, first
// come first served across its clients and mirrors (codecGate): finishing
// chunks one after the other hands each to the next hop sooner than
// time-slicing the cores between several, and it keeps the clients' chunks
// apart on the chain instead of letting them collide at every hop.
//
// The helpers die with the caller: when a NICFS crash kills it mid-chunk,
// its unwinding kills them and frees the gate.
func (n *NICFS) codeTime(p *sim.Proc, rawLen int, bw float64) {
	if !n.cl.Cfg.Parallel {
		n.nicCompute(p, codecCost(rawLen, bw))
		return
	}
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

// zipAll codes every sub-block of ck in turn and seals it.
func (ck *chunk) zipAll(enc *compress.Encoder) {
	for i := 0; i < subBlocks(len(ck.raw)); i++ {
		ck.cbuf, ck.zipLens = zipSubBlock(enc, ck.cbuf, ck.zipLens, ck.raw, i)
	}
	ck.seal()
}

// seal decides, once every sub-block is coded, whether the chunk travels
// compressed (if that frame is smaller than the raw bytes), and sums it.
func (ck *chunk) seal() {
	if (batchChunk{Payload: ck.cbuf, SubLens: ck.zipLens}).wireLen() < len(ck.raw) {
		ck.subLens, ck.sum = ck.zipLens, frameSum(ck.zipLens, ck.cbuf)
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
	cs.pubs.put(ck.from, ck)
	for next, ok := cs.pubs.take(); ok; next, ok = cs.pubs.take() {
		cs.publishChunk(p, next)
		cs.pubs.next = next.to
	}
	return false
}

// publishChunk applies one chunk's entries: metadata updates run on the
// SmartNIC (indexes cached in NIC DRAM, writes across PCIe); data movement
// goes by publishItems' rule: the host kernel worker's DMA engine, or across
// PCIe directly for a small batch and in isolated mode (§3.3.1, §3.5).
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
	items := cs.pubItems[:0]
	cp := func(dst int64, src []byte) {
		items = append(items, copyItem{Dst: dst, Data: src})
	}
	if err := n.vol.ApplyAll(ctx, ck.entries, cp); err != nil {
		// Publication cannot proceed (e.g. the public area is out of
		// space). Record the fault; the client sees an error on its next
		// fsync, once the chain has the chunk.
		ck.valid = false
		if cs.fault == nil {
			cs.fault = err
		}
		return
	}
	n.PubBytes += int64(copyBytes(items))
	if n.publishItems(p, items) {
		// The timed-out kernel worker may still read these item buffers,
		// which alias ck.raw, and the list itself: leak both instead of
		// recycling them.
		ck.retained = true
		cs.pubItems = nil
		return
	}
	clear(items)
	cs.pubItems = items
}

// runSender is the per-client chain transmit loop: it hands the window
// every chunk already queued (so a backlog coalesces into one message,
// doorbell batching) and executes its pump: a run to send, or a chunk that
// never goes on the wire (invalid, or no replica) to complete here.
func (cs *clientState) runSender(p *sim.Proc) {
	for {
		ck, ok := cs.xferQ.Get(p)
		if !ok {
			return
		}
		for ; ok; ck, ok = cs.xferQ.TryGet() {
			cs.snd.queue(ck, ck.from, ck.to, len(ck.raw), ck.frame().wireLen(), ck.valid)
		}
		for a := cs.snd.pump(); a.op != opIdle; a = cs.snd.pump() {
			if a.op == opSend {
				cs.flushBatch(p)
			} else {
				a.h.sent.Trigger(nil)
				cs.advanceRep(a.h)
			}
		}
	}
}

// frame is ck as it goes on the wire: the raw bytes, or the sealed
// sub-block streams, their table and sum. Payload, table and touched
// records are lent, not copied.
func (ck *chunk) frame() batchChunk {
	payload := ck.raw
	if len(ck.subLens) > 0 {
		payload = ck.cbuf
	}
	return batchChunk{
		From: ck.from, To: ck.to, Payload: payload, SubLens: ck.subLens, Sum: ck.sum,
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

// doorbellChunks is how many chunk boundaries a LibFS client gathers before
// it rings one chunk-ready doorbell carrying all of them: as many chunks of
// chunkSize as one chain message carries. Past that the doorbell only delays
// chunks the sender cannot batch anyway; at 1 MiB chunks and above it is 1,
// a doorbell per chunk.
func doorbellChunks(chunkSize int) int {
	return max(1, min(repBatchChunks, repBatchBytes/chunkSize))
}

// fsyncPieceOf is the most log bytes in one piece of a large fsync's range:
// what the wire carries in the time one NIC core takes to dispatch a
// message (NICRPCCost; 82 500 bytes at the default spec). Every hop pays
// that dispatch per message, a pipeline stage of its own beside the wire, and
// a piece that balances the two keeps both busy (DESIGN.md §11). It is 0 —
// the range goes whole — where the stage behind validation needs the whole
// range (Compress: one codecGate hold) or there is no stage behind it
// (LineFS-NotParallel).
func fsyncPieceOf(cfg Config) int {
	if !cfg.Parallel || cfg.Compress {
		return 0
	}
	s := cfg.Spec
	dispatch := time.Duration(float64(s.NICRPCCost) / s.NICSpeed) // as hw.CPU.Scale charges it
	return int(float64(dispatch) * s.NetBW / float64(time.Second))
}

// transmit frames run as one replChunkBatch and posts it to the first
// replica; a batch of one is still a batch. Payloads and touched records
// are lent, not copied: chunk buffers stay alive until replication
// completes, which is also what lets a retransmission frame them again.
func (cs *clientState) transmit(p *sim.Proc, run []span[*chunk]) error {
	n := cs.n
	msg := &replChunkBatch{
		Slot: cs.slot, Epoch: n.epoch, From: run[0].from, To: run[len(run)-1].to,
		Chunks: make([]batchChunk, len(run)),
	}
	for i := range run {
		msg.Sync = msg.Sync || run[i].h.sync
		msg.Chunks[i] = run[i].h.frame()
	}
	err := n.peer(cs.chain[1], msg.Sync).Send(p, "repl-chunk-batch", msg, wireOf(run))
	n.RepMsgs++
	return err
}

// flushBatch ships the window's open run down the chain as one wire message.
func (cs *clientState) flushBatch(p *sim.Proc) {
	n := cs.n
	start := p.Now()
	run := cs.snd.run
	for i := range run {
		n.RepBytes += int64(run[i].raw)
	}
	n.RepWireBytes += int64(wireOf(run))
	err := cs.transmit(p, run)
	n.RepChunksSent += int64(len(run))
	for i := range run {
		run[i].h.sent.Trigger(nil)
	}
	cs.release(cs.snd.sent(err == nil, time.Duration(start)))
	n.StageTimes["transfer"].add(time.Duration(p.Now() - start))
}

// pos is the named machine's position in the slot's chain, or -1.
func (cs *clientState) pos(name string) int {
	for i, mi := range cs.chain {
		if cs.n.cl.Machines[mi].Name == name {
			return i
		}
	}
	return -1
}

// release completes the chunks the window released.
func (cs *clientState) release(acts []chainAct[*chunk]) {
	for _, a := range acts {
		cs.advanceRep(a.h)
	}
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
func (cs *clientState) advanceRep(ck *chunk) {
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
		cs.n.StageTimes["wait-pub"].add(time.Duration(t1 - t0))
		cs.n.StageTimes["wait-rep"].add(time.Duration(p.Now() - t1))
		cs.pending[0] = nil
		cs.pending = cs.pending[1:]
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

// stageSeq is the LineFS-NotParallel datapath, mainPl's one stage: one
// SmartNIC thread executes fetch, validation, publication and replication
// for each chunk back to back, with no overlap.
func (cs *clientState) stageSeq(p *sim.Proc, ck *chunk) bool {
	if cs.runInline(p, ck) {
		cs.waitReplicated(p, ck.to)
	}
	return false
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
		cs.stageCompress(p, ck)
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
	// The range goes as the client's pieces (none where it must go whole,
	// fsyncPieceOf), so that piece k+1's fetch overlaps piece k's trip down
	// the chain. A retried request finds Head queued, forms nothing (nil)
	// and waits.
	var formed []*chunk
	for _, cut := range req.Cuts {
		formed = append(formed, cs.formChunk(p, min(cut, req.Head), true))
	}
	formed = append(formed, cs.formChunk(p, req.Head, true))
	// A sync chunk is fetched and validated here, on the handler's own
	// process, so that it does not queue in mainPl behind the client's bulk
	// chunks; from the split on it goes the way every chunk goes, marked
	// sync, on the low-latency connection. Local publication is not waited
	// for.
	for _, ck := range formed {
		switch {
		case ck == nil: // already queued
		case cs.pubPl == nil:
			cs.runInline(p, ck)
		case cs.stageFetch(p, ck):
			cs.validateSplit(p, ck)
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
