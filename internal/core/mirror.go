package core

import (
	"fmt"
	"slices"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// mirrorState is the replica-side NICFS state for one remote client's log:
// a local PM log mirror that the chain keeps byte-identical with the
// primary's, plus local publication so the replica's public area stays
// current and the mirror can be reclaimed (§3.3.2, Figure 3).
type mirrorState struct {
	n    *NICFS
	slot int
	log  *fs.LogArea

	// chainPos is this node's index in the slot's chain (1 = first
	// replica).
	chainPos int
	chain    []int

	q   *sim.Queue[*replChunkBatch]
	rcv ChainReceiver[*replChunkBatch]

	// backlog holds, oldest first, the ranges persisted and acknowledged but
	// not yet published, the one being published included; pubQ wakes the
	// publisher once per range, decoupling publication from the chain
	// critical path.
	backlog []pubJob
	pubQ    *sim.Queue[struct{}]

	// dec is the decompression dictionary, reused across sub-blocks (every
	// call starts a fresh dictionary).
	dec compress.Decoder

	// bufs is the mirror's raw-buffer freelist: incoming payloads are
	// always copied (or decompressed) into a mirror-owned buffer, never
	// aliased — the primary recycles its chunk buffers as soon as the chain
	// acks, which can be before this replica's background publication runs.
	bufs [][]byte
	// spills counts waiting ranges read back early, before a persist
	// overwrote their ring bytes.
	spills int
	// pubItems is publishLocal's copy list, reused unless a timed-out kernel
	// worker may still read it; decoded holds the entries it decodes.
	pubItems []copyItem
	decoded  fs.EntryList
}

// pubJob is the log range [from, to) of one persisted batch. raw holds its
// bytes once the publisher reaches it; a batch that waits for the publisher
// gives its receive buffer back and is read from the ring (readBack), which
// holds the same bytes persisted.
type pubJob struct {
	raw      []byte
	from, to uint64
}

// getBuf takes the newest pooled buffer with room for n bytes. When none
// has, it makes one, and the newest pooled buffer, too small, goes with it,
// so that small buffers do not keep the pool full.
func (ms *mirrorState) getBuf(n int) []byte {
	var b []byte
	if k := len(ms.bufs) - 1; k >= 0 {
		for i := k; i >= 0; i-- {
			if cap(ms.bufs[i]) >= n {
				k = i
				break
			}
		}
		b = ms.bufs[k]
		ms.bufs = slices.Delete(ms.bufs, k, k+1)
	}
	return growBuf(b, n)
}

func (ms *mirrorState) putBuf(b []byte) {
	if cap(b) == 0 || len(ms.bufs) >= 16 {
		return
	}
	ms.bufs = append(ms.bufs, b[:0])
}

// routeMirror dispatches replication traffic to the slot's mirror process,
// creating it on first contact.
func (n *NICFS) routeMirror(p *sim.Proc, msg *rdma.Msg) {
	rb, ok := msg.Arg.(*replChunkBatch)
	if !ok {
		return
	}
	ms := n.mirrors[rb.Slot]
	if ms == nil {
		// A frame for a slot nobody attached, or whose chain does not pass
		// here, is dropped and never acknowledged.
		if ms = n.newMirror(rb.Slot); ms == nil {
			return
		}
	}
	ms.q.Put(p, rb)
}

// newMirror starts slot's mirror on this node, or returns nil when the node
// is not a replica of the slot's chain (which starts at the machine the
// slot's client attached on).
func (n *NICFS) newMirror(slot int) *mirrorState {
	cl := n.cl
	primary, ok := cl.SlotMachine(slot)
	if !ok {
		return nil
	}
	chain := cl.Chain(primary)
	pos := slices.Index(chain, n.machine)
	if pos <= 0 {
		return nil
	}
	ms := &mirrorState{
		n:        n,
		slot:     slot,
		log:      fs.NewLogArea(cl.Machines[n.machine].PM, cl.LogBase(slot), cl.Cfg.LogSize),
		chainPos: pos,
		chain:    chain,
		q:        sim.NewQueue[*replChunkBatch](cl.Env, 0),
		pubQ:     sim.NewQueue[struct{}](cl.Env, 0),
		rcv:      ChainReceiver[*replChunkBatch]{Tail: pos == len(chain)-1},
	}
	cl.Env.Go(n.Name()+"/mirror", ms.run)
	cl.Env.Go(n.Name()+"/mirror-pub", ms.runPublisher)
	n.mirrors[slot] = ms
	return ms
}

// runPublisher applies replicated chunks to the replica's public area in
// the background (Figure 3 keeps publication off the chain critical path)
// and recycles their buffers — except one a timed-out kernel-worker copy may
// still read, which is never recycled (the primary's rule for its chunks).
func (ms *mirrorState) runPublisher(p *sim.Proc) {
	for {
		ms.pubQ.Get(p)
		job := &ms.backlog[0]
		if job.raw == nil {
			ms.readBack(job)
		}
		raw, to := job.raw, job.to // handleBatch may grow the backlog meanwhile
		if !ms.publishLocal(p, raw, to) {
			ms.putBuf(raw)
		}
		ms.backlog = slices.Delete(ms.backlog, 0, 1)
	}
}

// readBack fills job's buffer from the mirror ring, where its range lies
// persisted. It is the simulator's host copy, not a modelled one: the
// context has no process, so it charges no virtual time and crosses no
// link, and publication costs what publishing from NIC memory costs.
//
//linefs:hotpath
func (ms *mirrorState) readBack(job *pubJob) {
	job.raw = ms.getBuf(int(job.to - job.from))
	ctx := fs.Ctx{PM: ms.n.cl.Machines[ms.n.machine].PM}
	ms.log.ReadRawInto(&ctx, job.from, job.raw)
}

// spill reads back every waiting range that a persist ending at to would
// overwrite in a ring of capacity c: one that starts below to − c. Nothing
// bounds a LineFS mirror's ring lag by its publication, so the persist goes
// ahead; the range is published from the copy.
//
//linefs:hotpath
func (ms *mirrorState) spill(to uint64, c int64) {
	for i := range ms.backlog {
		if job := &ms.backlog[i]; job.raw == nil && job.from+uint64(c) < to {
			ms.readBack(job)
			ms.spills++
		}
	}
}

// run executes the receiver's decisions for the mirror's replication
// traffic. The primary serializes transfers per client, but sync-path
// chunks ride the low-latency connection class and can overtake bulk-class
// chunks between the two service queues, so the receiver puts arrivals back
// in log order.
func (ms *mirrorState) run(p *sim.Proc) {
	for {
		rb, _ := ms.q.Get(p)
		for _, a := range ms.rcv.Arrive(rb, rb.From, rb.To, rb.Settled) {
			switch a.Op {
			case OpAdopt: // released without this mirror: it was down, or behind one that was
				ctx := ms.n.cl.nicCtx(p, ms.n.machine, "nicfs")
				ms.log.ResetTo(&ctx, a.From)
			case OpReAck:
				ms.n.cl.Robust.DupDelivered++
				ms.ack(p, a.To)
			case OpForward:
				ms.relay(rb)
			}
		}
		for sp, ok := ms.rcv.Next(); ok; sp, ok = ms.rcv.Next() {
			ms.handleBatch(p, sp.H, sp.From)
		}
	}
}

// relay forwards rb down the chain on a process of its own, which dies with
// its NICFS.
func (ms *mirrorState) relay(rb *replChunkBatch) {
	n, next := ms.n, ms.chain[ms.chainPos+1]
	n.cl.Env.Go(n.Name()+"/fwd", func(fp *sim.Proc) { ms.forward(fp, next, rb) })
}

// decodeBatchChunk places one batch frame's raw bytes into dst, which the
// caller sizes and capacity-pins to the declared raw length. Sub-blocks
// decode back to back, in index order, each into its span with the capacity
// pinned too, and must come out exactly full: a decode that grows past its
// span reallocs away from the batch buffer and is rejected, so a corrupt
// frame cannot scribble outside its slot.
//
//linefs:hotpath
func decodeBatchChunk(dec *compress.Decoder, dst []byte, bc *batchChunk) error {
	if err := bc.checkTable(); err != nil {
		return err
	}
	if len(bc.SubLens) == 0 {
		copy(dst, bc.Payload)
		return nil
	}
	at := 0
	for i, l := range bc.SubLens {
		lo, hi := subBlockSpan(bc.RawLen, len(bc.SubLens), i)
		//lint:allow scratchflow over-long decode reallocs only on the rejected path
		out, err := dec.DecompressInto(dst[lo:lo:hi], bc.Payload[at:at+int(l)])
		if err != nil {
			return err
		}
		if len(out) != hi-lo {
			return errBatchFrame
		}
		if hi > lo && &out[0] != &dst[lo] {
			// The borrow sanitizer poisoned the empty dst and decoded into a
			// fresh buffer; the default build decodes in place.
			copy(dst[lo:hi], out)
		}
		at += int(l)
	}
	return nil
}

// settle places frame bc in its slot of a batch buffer (decodeBatchChunk)
// and CRC-scans it, counting a CRC failure; a compressed frame is then
// charged its decode time on the wimpy cores, like the primary's
// compression (reads are cheaper: at 2x the compression bandwidth).
func (ms *mirrorState) settle(p *sim.Proc, bc *batchChunk, slot []byte) bool {
	if err := decodeBatchChunk(&ms.dec, slot, bc); err != nil {
		return false
	}
	if err := fs.VerifyWire(slot); err != nil {
		ms.n.cl.Robust.CRCRejected++
		return false
	}
	if len(bc.SubLens) > 0 {
		ms.n.codeTime(p, bc.RawLen, len(bc.SubLens), 2*ms.n.cl.Cfg.Spec.CompressBW)
	}
	return true
}

// handleBatch is steps 4–7 of Figure 3 for one replChunkBatch's frames
// from from on (a duplicate's frames below the head are skipped by index),
// in one pass: the frames are checked, they forward to the next hop, every
// frame lands in one contiguous mirror buffer (decoded there, if
// compressed, while the next hop works), one persist covers the range in
// the local PM log mirror, one cumulative ack reports To, and one
// background publication job applies all entries.
func (ms *mirrorState) handleBatch(p *sim.Proc, rb *replChunkBatch, from uint64) {
	n := ms.n
	cl := n.cl
	if from > rb.From {
		k := 0
		for k < len(rb.Chunks) && rb.Chunks[k].To <= from {
			k++
		}
		cut := *rb
		cut.From, cut.Chunks = from, rb.Chunks[k:]
		rb = &cut
	}
	// Framing first, before any buffer is taken: frames tile [From, To)
	// exactly, each declares the raw length of its own range, and its
	// sub-block table (if any) matches its payload.
	at := rb.From
	for i := range rb.Chunks {
		bc := &rb.Chunks[i]
		if bc.From != at || uint64(bc.RawLen) != bc.To-bc.From || bc.checkTable() != nil {
			return // malformed framing: never acknowledged
		}
		at = bc.To
	}
	if len(rb.Chunks) == 0 || at != rb.To {
		return
	}
	raw := ms.getBuf(int(rb.To - rb.From))
	slot := func(bc *batchChunk) []byte { return raw[bc.From-rb.From : bc.To-rb.From : bc.To-rb.From] }
	// Integrity gate: a frame damaged in flight is never forwarded, persisted
	// or acknowledged — the primary resends it. A raw frame is settled now, a
	// compressed frame's Sum checked (the NIC's hardware CRC, at no virtual
	// time); only a sender makes one that passes and fails to settle later.
	for i := range rb.Chunks {
		bc := &rb.Chunks[i]
		if err := bc.checkSum(); err != nil {
			cl.Robust.CRCRejected++
			ms.putBuf(raw)
			return
		}
		if len(bc.SubLens) == 0 && !ms.settle(p, bc, slot(bc)) {
			ms.putBuf(raw)
			return
		}
	}

	// Forward down the chain asynchronously: the next hop's work overlaps our
	// decode, our persist and later batches' forwards (steps 4 and 5 of
	// Figure 3 pipeline across chunks). Ordering needs no serialization —
	// every mirror reorders arrivals by log offset. The forward carries the
	// message's original payloads (primary-owned until the whole chain acks,
	// so safe down-chain — unlike our pooled copy); compressed chunks stay
	// compressed on the wire for every hop (the bandwidth saving is the
	// point).
	if !ms.rcv.Tail {
		ms.relay(rb)
	}
	for i := range rb.Chunks {
		if bc := &rb.Chunks[i]; len(bc.SubLens) > 0 && !ms.settle(p, bc, slot(bc)) {
			ms.putBuf(raw)
			return
		}
	}

	// Persist the batch into the local PM log mirror, after reading out what
	// it would overwrite of the ranges still waiting to be published.
	ms.spill(rb.To, ms.log.Cap())
	ms.persistRaw(p, rb.From, raw, rdma.ClassPrio(rb.Sync))

	// One cumulative acknowledgment covers every chunk in the batch.
	ms.ack(p, ms.rcv.Persisted(rb.To).To)

	// Publish locally in the background so the replica's public area keeps
	// up and the mirror ring can be reclaimed. An idle publisher takes the
	// buffer the batch arrived in; a batch that waits gives it back and is
	// read from the ring when its turn comes.
	job := pubJob{from: rb.From, to: rb.To}
	if len(ms.backlog) == 0 {
		job.raw = raw
	} else {
		ms.putBuf(raw)
	}
	ms.backlog = append(ms.backlog, job)
	ms.pubQ.Put(p, struct{}{})
}

// ack tells the primary that everything through to is durable here. Acks
// are latency-critical and ride the low-latency class (§3.3.2).
func (ms *mirrorState) ack(p *sim.Proc, to uint64) {
	_ = ms.n.peer(ms.chain[0], true).Send(p, "repl-ack",
		&replAck{Slot: ms.slot, To: to, Node: ms.n.Name()}, 24)
}

// forward relays a data message to the next hop through its NICFS memory,
// unchanged.
func (ms *mirrorState) forward(p *sim.Proc, next int, rb *replChunkBatch) {
	ms.n.RepMsgs++
	_ = ms.n.peer(next, rb.Sync).Send(p, "repl-chunk-batch", rb, batchWireLen(rb))
}

func batchWireLen(rb *replChunkBatch) int {
	total := 0
	for i := range rb.Chunks {
		total += rb.Chunks[i].wireLen()
	}
	return total
}

// persistRaw copies chunk bytes from SmartNIC memory into the local host
// PM log mirror across PCIe at prio. No host thread takes part, so the ack
// that follows — and the fsync behind it — never waits on this replica's
// host (§5.2.5); the copy is done with raw when it returns.
func (ms *mirrorState) persistRaw(p *sim.Proc, at uint64, raw []byte, prio int) {
	n := ms.n
	for off := 0; off < len(raw); {
		seg := ms.log.SegmentAt(at+uint64(off), len(raw)-off)
		n.pmWrite(p, seg.PhysOff, raw[off:off+seg.Len], prio)
		off += seg.Len
	}
	// Advance and persist the mirror header (small PCIe write). A gap here
	// means chunk arrival order diverged from log order — a chain-protocol
	// bug that must not be papered over by silently skipping the advance.
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	if err := ms.log.AdvanceHead(&ctx, at, len(raw)); err != nil {
		panic(fmt.Sprintf("core: mirror advance: %v", err))
	}
}

// publishLocal applies a replicated chunk (or batch) to this replica's
// public area and reclaims the mirror ring. It reports whether a timed-out
// kernel worker may still read raw (see publishItems).
func (ms *mirrorState) publishLocal(p *sim.Proc, raw []byte, to uint64) (retained bool) {
	n := ms.n
	entries, err := fs.DecodeAll(raw, &ms.decoded)
	if err != nil {
		return false
	}
	n.nicCompute(p, validateCost(len(raw), n.cl.Cfg.Spec.ValidatePerMiB))
	ctx := n.cl.nicCtx(p, n.machine, "nicfs")
	items := ms.pubItems[:0]
	cp := func(dst int64, src []byte) { items = append(items, copyItem{Dst: dst, Data: src}) }
	if err := n.vol.ApplyAll(&ctx, entries, cp); err == nil {
		n.recordHistory(n.epoch, entries)
		retained = n.publishItems(p, items)
		n.PubBytes += int64(len(raw))
	}
	if retained {
		ms.pubItems = nil // a late kernel-worker copy may still read the list
	} else {
		clear(items)
		ms.pubItems = items
	}
	ms.decoded.Reset()
	ms.log.Reclaim(&ctx, to)
	return retained
}
