package core

import "time"

// The chain protocol's decisions (§3.3.2; DESIGN.md §11 "Cumulative acks",
// §12 "Survival layers") as two pure machines: chainSender is a primary's
// window over one client slot's log, chainReceiver a replica's mirror of it.
// Neither blocks, charges time nor touches a frame's bytes: each takes an
// event and returns the actions it decided, in the order they must run, for
// its shell (clientState, mirrorState) to execute. A handle H is whatever
// the shell wants back: a *chunk, a *replChunkBatch, an int in the tests.

type chainOp uint8

const (
	opIdle    chainOp = iota
	opSend            // put the sender's open run on the wire
	opRelease         // h is on every live replica, or never goes on the wire: complete it
	opAdopt           // start the mirror's stream at from
	opReAck           // a duplicate arrived: ack through to again
	opForward         // relay the duplicate h down the chain
	opAck             // everything through to is persisted here
)

type chainAct[H any] struct {
	op       chainOp
	h        H
	from, to uint64
}

// inOrder holds items that arrive in any order and hands out the one that
// starts at its cursor, next; the caller moves the cursor.
type inOrder[T any] struct {
	next uint64
	held map[uint64]T
}

func (b *inOrder[T]) put(from uint64, v T) {
	if b.held == nil {
		b.held = make(map[uint64]T)
	}
	b.held[from] = v
}

func (b *inOrder[T]) take() (v T, ok bool) {
	if v, ok = b.held[b.next]; ok {
		delete(b.held, b.next)
	}
	return v, ok
}

// span is one chunk's range: raw bytes owed until every live replica acks
// it, wire the bytes of its frame, sentAt when it first went on the wire (0
// once resent: that ack says nothing of how long the chain takes).
type span[H any] struct {
	h         H
	from, to  uint64
	raw, wire int
	local     bool // never goes on the wire: invalid, or no replica
	sentAt    time.Duration
}

// wireOf is run's frame bytes; full reports whether run must go on the wire
// now, a message being bounded both in chunks and in bytes.
func wireOf[H any](run []span[H]) (n int) {
	for i := range run {
		n += run[i].wire
	}
	return n
}

func full[H any](run []span[H]) bool {
	return len(run) >= repBatchChunks || wireOf(run) >= repBatchBytes
}

// chainSender is a primary's side of one slot's chain. Index i of water and
// dead is chain position i; 0, the primary itself, is unused.
type chainSender[H any] struct {
	queued inOrder[span[H]] // finished chunks; next is the send cursor
	run    []span[H]        // the open message
	win    []span[H]        // on the wire and not yet acked, in log order
	owed   int64            // raw bytes in win
	water  []uint64         // cumulative ack per replica
	dead   []bool           // replicas membership has declared down
	// cut is a hole in the stream: a chunk that never went on the wire,
	// whose range every mirror would wait for forever. Nothing after it goes
	// either; the chunk failed validation (failChunk) or publication, which
	// faulted the slot: every later fsync returns the fault.
	cut bool

	// The retransmit timer: the watermark the window was last seen waiting
	// at, since when (0 while nothing is owed), the backoff, and the last
	// ack's sample of the chain, took over a chunk of tookBytes.
	stuckAt        uint64
	since, backoff time.Duration
	took           time.Duration
	tookBytes      int64
	rerun          []span[H]
	out            []chainAct[H]
}

// queue takes a chunk finished in any order.
func (s *chainSender[H]) queue(h H, from, to uint64, raw, wire int, valid bool) {
	s.queued.put(from, span[H]{h: h, from: from, to: to, raw: raw, wire: wire, local: !valid || len(s.water) == 1})
}

// pump moves the send cursor over contiguous queued chunks into the open
// run: opSend once the run is full, or when the cursor finds a local chunk
// or nothing behind it (so batching never adds latency: it only amortizes
// per-message costs a backlog would pay anyway); opRelease for a local
// chunk, or any chunk past a cut; opIdle when there is nothing to do.
func (s *chainSender[H]) pump() chainAct[H] {
	for {
		sp, ok := s.queued.held[s.queued.next]
		local := ok && (sp.local || s.cut)
		if (!ok || local) && len(s.run) > 0 {
			return chainAct[H]{op: opSend}
		}
		if !ok {
			return chainAct[H]{}
		}
		s.queued.take()
		s.queued.next = sp.to
		if local {
			s.cut = true
			return chainAct[H]{op: opRelease, h: sp.h}
		}
		if s.run = append(s.run, sp); full(s.run) {
			return chainAct[H]{op: opSend}
		}
	}
}

// sent reports the open run's fate: on the wire at now, it enters the
// window; with its next hop unreachable it is released at once (degraded
// durability, as when the chain is cut). A range that never went on the
// wire never enters the window.
func (s *chainSender[H]) sent(ok bool, now time.Duration) []chainAct[H] {
	s.out = s.out[:0]
	for _, sp := range s.run {
		if ok {
			sp.sentAt = now
			s.win = append(s.win, sp)
			s.owed += int64(sp.raw)
		} else {
			s.out = append(s.out, chainAct[H]{op: opRelease, h: sp.h})
		}
	}
	clear(s.run)
	s.run = s.run[:0]
	return s.out
}

// ack applies replica pos's cumulative watermark; stale is an ack that names
// no replica or does not advance its watermark (a late duplicate). The
// oldest chunk it releases, if first sent, is the chain's new sample.
//
//linefs:hotpath
func (s *chainSender[H]) ack(pos int, to uint64, now time.Duration) (rel []chainAct[H], stale bool) {
	if pos < 1 || pos >= len(s.water) || to <= s.water[pos] {
		return nil, true
	}
	s.water[pos] = to
	if first, ok := s.advance(); ok && first.sentAt != 0 {
		s.took, s.tookBytes = now-first.sentAt, int64(first.raw)
	}
	return s.out, false
}

// member is membership's view of replica pos (none if pos < 1). A replica
// declared down stops holding the window back: what the survivors hold is
// released, and with none left, everything.
func (s *chainSender[H]) member(pos int, alive bool) []chainAct[H] {
	if pos > 0 {
		s.dead[pos] = !alive
	}
	s.advance()
	return s.out
}

// advance releases the window's front up to the lowest live watermark: O(1)
// per released chunk, no scan of the un-acked tail.
//
//linefs:hotpath
func (s *chainSender[H]) advance() (first span[H], ok bool) {
	s.out = s.out[:0]
	water, live := s.aliveWater()
	for len(s.win) > 0 && (!live || s.win[0].to <= water) {
		if len(s.out) == 0 {
			first = s.win[0]
		}
		s.out = append(s.out, chainAct[H]{op: opRelease, h: s.win[0].h})
		s.owed -= int64(s.win[0].raw)
		s.win[0] = span[H]{}
		s.win = s.win[1:]
	}
	return first, len(s.out) > 0
}

// aliveWater is the lowest watermark over live replicas; live=false means
// there is none.
//
//linefs:hotpath
func (s *chainSender[H]) aliveWater() (water uint64, live bool) {
	water = ^uint64(0)
	for i := 1; i < len(s.water); i++ {
		if !s.dead[i] {
			water, live = min(water, s.water[i]), true
		}
	}
	return water, live
}

// tick is the retransmit timer at now, with owed bytes in flight on the
// whole NIC; it returns the window's first run to resend, if it is time. The
// window must have waited at one watermark for resendEvery since the timer
// first saw it there (the first look only takes note: the chunk may have
// left a microsecond ago), backed off exponentially, capped at 8×, while
// nothing moves.
func (s *chainSender[H]) tick(now time.Duration, owed int64) []span[H] {
	water, live := s.aliveWater()
	switch {
	case len(s.win) == 0 || !live:
		s.since = 0
	case s.since == 0 || water != s.stuckAt:
		s.stuckAt, s.since, s.backoff = water, now, 1
	case now-s.since >= s.backoff*resendEvery(owed, s.tookBytes, s.took):
		s.since, s.backoff = now, min(2*s.backoff, 8)
		return s.resend(0)
	}
	return nil
}

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

// resend is the window's next run to send again, from its first chunk at or
// past next: contiguous, bounded like a first transmission, stamped resent.
// The shell sends it and asks again from its end until none is left: acks
// pop the window's front meanwhile, so no index into it survives the send.
func (s *chainSender[H]) resend(next uint64) []span[H] {
	clear(s.rerun)
	s.rerun = s.rerun[:0]
	for i := range s.win {
		sp := &s.win[i]
		if sp.from < next {
			continue
		}
		if k := len(s.rerun); k > 0 && s.rerun[k-1].to != sp.from {
			break
		}
		sp.sentAt = 0
		if s.rerun = append(s.rerun, *sp); full(s.rerun) {
			break
		}
	}
	return s.rerun
}

// chainReceiver is a replica's side of one slot's chain: frames arrive in
// any order (a sync frame overtakes bulk ones between the two classes'
// connections) and are persisted in log order from the head, held.next.
type chainReceiver[H any] struct {
	held inOrder[span[H]]
	tail bool // the chain's last replica: nothing to relay
	// fresh is a mirror born after Recover: it adopts its first frame's
	// offset as its start (DESIGN.md §12 "Where a mirror's stream starts").
	fresh bool
	out   []chainAct[H]
}

// arrive takes frame h over [from, to). A frame that starts below the head
// is a duplicate: the head is re-acked (the first ack may be what was lost)
// and the frame relayed (the lost frame may be this hop's forward), then it
// is dropped, or cut to its part past the head. The rest waits its turn.
func (r *chainReceiver[H]) arrive(h H, from, to uint64) []chainAct[H] {
	r.out = r.out[:0]
	head := r.held.next
	if r.fresh && from > head {
		head, r.held.next = from, from
		r.out = append(r.out, chainAct[H]{op: opAdopt, from: from})
	}
	r.fresh = false
	if from < head {
		r.out = append(r.out, chainAct[H]{op: opReAck, to: head})
		if !r.tail {
			r.out = append(r.out, chainAct[H]{op: opForward, h: h})
		}
		if to <= head {
			return r.out
		}
		from = head
	}
	r.held.put(from, span[H]{h: h, from: from, to: to})
	return r.out
}

// next is the frame that starts at the head, for the shell to gate, relay
// and persist from its from; persisted moves the head past it, to be acked.
func (r *chainReceiver[H]) next() (span[H], bool) { return r.held.take() }

func (r *chainReceiver[H]) persisted(to uint64) chainAct[H] {
	r.held.next = to
	return chainAct[H]{op: opAck, to: to}
}
