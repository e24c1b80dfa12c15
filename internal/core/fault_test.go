package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// assertReplicasHold checks that every node's published volume carries
// exactly want at path — same size (no double apply) and same bytes.
func assertReplicasHold(t *testing.T, cl *Cluster, path string, want []byte) {
	t.Helper()
	for mi := 0; mi < cl.Cfg.Nodes; mi++ {
		ctx := fs.NoCostCtx(cl.Machines[mi].PM)
		ino, err := cl.Vols[mi].Resolve(ctx, path)
		if err != nil {
			t.Fatalf("node %d: %v", mi, err)
		}
		in, err := cl.Vols[mi].Stat(ctx, ino)
		if err != nil {
			t.Fatalf("node %d stat: %v", mi, err)
		}
		if in.Size != uint64(len(want)) {
			t.Fatalf("node %d size = %d, want %d (duplicate apply?)", mi, in.Size, len(want))
		}
		got := make([]byte, len(want))
		n, err := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
		if err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("node %d content mismatch (n=%d err=%v)", mi, n, err)
		}
	}
}

// TestRetransmitDupDeliveryIdempotent blackholes the ack direction of the
// chain: data frames reach the first mirror, its cumulative acks die, and
// the primary's retransmit layer resends chunks the mirror already applied.
// The watermark dedup must absorb every duplicate — the fsync completes
// after heal and no replica applies a byte twice.
func TestRetransmitDupDeliveryIdempotent(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	payload := bytes.Repeat([]byte{0x5A}, 512<<10)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/dup")
		fp.SetRule("node1", "node0", rdma.FaultRule{Drop: 1})
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(300 * time.Millisecond)
			fp.ClearRules()
		})
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across ack blackhole: %v", err)
		}
		p.Sleep(2 * time.Second)
	})
	if cl.Robust.FramesDropped == 0 {
		t.Error("ack blackhole dropped no frames; rule never engaged")
	}
	if cl.Robust.RepResends == 0 {
		t.Error("primary never retransmitted across the silent-ack window")
	}
	if cl.Robust.DupDelivered == 0 {
		t.Error("mirror saw no duplicate deliveries; retransmits never reached it")
	}
	assertReplicasHold(t, cl, "/dup", payload)
}

// TestCorruptedFrameRejectedEndToEnd corrupts every data frame on the
// primary->mirror link: the mirror's CRC gate must reject each one without
// applying or acking it, the retransmit layer keeps the chunks pending, and
// once the link heals a clean resend converges every replica.
func TestCorruptedFrameRejectedEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	payload := bytes.Repeat([]byte{0xC2}, 384<<10)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/crc")
		fp.SetRule("node0", "node1", rdma.FaultRule{Corrupt: 1})
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(300 * time.Millisecond)
			fp.ClearRules()
		})
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across corrupting link: %v", err)
		}
		p.Sleep(2 * time.Second)
	})
	if cl.Robust.FramesCorrupted == 0 && cl.Robust.OneSidedFaults == 0 {
		t.Error("corruption rule never engaged")
	}
	if cl.Robust.CRCRejected == 0 {
		t.Error("mirror accepted corrupted frames; CRC gate never fired")
	}
	assertReplicasHold(t, cl, "/crc", payload)
}

// TestCorruptedCompressedFrameRepaired is the same corrupting link under
// Compress: the flipped byte now lands inside one sub-block's LZW stream,
// so the frame dies in that sub-block's decode (a stream that no longer
// parses, or comes out the wrong length) or, if the stream still decodes,
// at the CRC gate over the decoded bytes. Either way nothing of it may be
// persisted, forwarded or acknowledged while the link corrupts, and the
// retransmit layer repairs every chunk once it heals.
func TestCorruptedCompressedFrameRepaired(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Compress = true
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	payload := logOf(sortRecords(rand.New(rand.NewSource(3)), 0.6), 3<<19)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/zipcrc")
		l.Fsync(p, fd)
		created := cl.NICs[1].mirrors[0].log.Head()
		acksBefore, fwdBefore := cl.NICs[0].AckMsgs, cl.NICs[1].RepMsgs
		fp.SetRule("node0", "node1", rdma.FaultRule{Corrupt: 1})
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(300 * time.Millisecond)
			if cl.Robust.FramesCorrupted == 0 {
				t.Error("corruption rule never engaged")
			}
			if cl.NICs[0].RepWireBytes >= cl.NICs[0].RepBytes {
				t.Error("frames travelled raw; the test wants compressed ones corrupted")
			}
			if head := cl.NICs[1].mirrors[0].log.Head(); head != created {
				t.Errorf("mirror persisted through %d from corrupted frames (was %d)", head, created)
			}
			if got := cl.NICs[0].AckMsgs - acksBefore; got != 0 {
				t.Errorf("%d acks for corrupted frames", got)
			}
			if cl.NICs[1].RepMsgs != fwdBefore {
				t.Error("a corrupted frame was forwarded down-chain")
			}
			fp.ClearRules()
		})
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across corrupting link: %v", err)
		}
		p.Sleep(2 * time.Second)
	})
	if cl.Robust.RepResends == 0 {
		t.Error("primary never retransmitted the rejected frames")
	}
	assertReplicasHold(t, cl, "/zipcrc", payload)
}

// TestPartitionStallsFsyncUntilHeal cuts the primary off its first mirror
// mid-replication: with the probe path unaffected (the manager still sees
// the node alive), the fsync must stall rather than falsely complete, and
// resume to full-chain durability once the partition heals.
func TestPartitionStallsFsyncUntilHeal(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	payload := bytes.Repeat([]byte{0x9D}, 256<<10)
	const healAt = 400 * time.Millisecond
	var fsyncDone sim.Time
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/part")
		fp.Partition("node0", "node1")
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(healAt)
			fp.HealAll()
		})
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across partition: %v", err)
		}
		fsyncDone = p.Now()
		p.Sleep(2 * time.Second)
	})
	if fsyncDone < sim.Time(healAt) {
		t.Fatalf("fsync completed at %v, before the partition healed at %v", fsyncDone, healAt)
	}
	if !cl.Mgr.Alive("node1") {
		t.Error("partition must not mark the NIC dead; probes bypass the fabric")
	}
	if cl.Robust.PartitionsHealed == 0 {
		t.Error("heal never counted")
	}
	assertReplicasHold(t, cl, "/part", payload)
}

// tapNIC puts deliver in front of machine mi's NICFS: every message bound for
// either of its services passes through it, and is handed on — to the queue
// NICFS would have named for its connection — only if it says so.
func tapNIC(env *sim.Env, cl *Cluster, mi int, deliver func(*rdma.Msg) bool) {
	n := cl.NICs[mi]
	for _, tap := range []struct {
		svc string
		dst func(*rdma.Conn) *sim.Queue[*rdma.Msg]
	}{{svcBulk, func(*rdma.Conn) *sim.Queue[*rdma.Msg] { return n.bulkQ }}, {svcLow, n.lane}} {
		tap, taps := tap, map[*rdma.Conn]*sim.Queue[*rdma.Msg]{}
		cl.Machines[mi].Port.RegisterPerConn(tap.svc, func(c *rdma.Conn) *sim.Queue[*rdma.Msg] {
			if q := taps[c]; q != nil {
				return q
			}
			q := sim.NewQueue[*rdma.Msg](env, 0)
			taps[c] = q
			env.Go("tap/"+tap.svc, func(p *sim.Proc) {
				for {
					m, ok := q.Get(p)
					if !ok {
						return
					}
					if deliver(m) {
						tap.dst(c).Put(p, m)
					}
				}
			})
			return q
		})
	}
}

// TestRetransmitObeysBatchBounds blackholes the ack direction under a
// backlog of small chunks, so the whole window is resent, and taps the
// primary->mirror link: every data message — first transmission or resend —
// must have been cut by the same full-batch predicate, i.e. it was not
// already full (in chunks or payload bytes) before its last frame joined.
// The resend path used to ignore the byte cap and ship 16-chunk runs of any
// size.
func TestRetransmitObeysBatchBounds(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()

	var seen []*replChunkBatch
	tapNIC(env, cl, 1, func(m *rdma.Msg) bool {
		if rb, ok := m.Arg.(*replChunkBatch); ok {
			seen = append(seen, rb)
		}
		return true
	})

	payload := bytes.Repeat([]byte{0x7B}, 4<<20)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/cap")
		fp.SetRule("node1", "node0", rdma.FaultRule{Drop: 1})
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(300 * time.Millisecond)
			fp.ClearRules()
		})
		for off := 0; off < len(payload); off += cfg.ChunkSize {
			if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+cfg.ChunkSize]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across ack blackhole: %v", err)
		}
		p.Sleep(2 * time.Second)
	})
	if cl.Robust.RepResends == 0 {
		t.Fatal("primary never retransmitted; the resend path was not exercised")
	}
	var highest uint64
	coalescedResends := 0
	for _, rb := range seen {
		if rb.From < highest && len(rb.Chunks) > 1 {
			coalescedResends++
		}
		if rb.To > highest {
			highest = rb.To
		}
		beforeLast := batchWireLen(rb) - len(rb.Chunks[len(rb.Chunks)-1].Payload)
		if len(rb.Chunks) > repBatchChunks || beforeLast >= repBatchBytes {
			t.Errorf("message [%d,%d): %d chunks, %d payload bytes before its last frame; bounds are %d chunks, %d bytes",
				rb.From, rb.To, len(rb.Chunks), beforeLast, repBatchChunks, repBatchBytes)
		}
	}
	if coalescedResends == 0 {
		t.Error("no resent message carried more than one chunk; the bound was never at stake")
	}
	assertReplicasHold(t, cl, "/cap", payload)
}

// TestCorruptCopyDraws pins what the fault plane's corruption costs in RNG
// draws: one (the byte index) for a one-frame message, as for the per-chunk
// frame it replaces, and one more (the frame index) only when there is a
// choice. Seeded chaos schedules replay through this draw sequence. The
// flip lands on a copy; the sender's pooled payload is untouched.
func TestCorruptCopyDraws(t *testing.T) {
	t.Parallel()
	payload := bytes.Repeat([]byte{0x11}, 4096)
	for frames := 1; frames <= 3; frames++ {
		rb := &replChunkBatch{Chunks: make([]batchChunk, frames)}
		for i := range rb.Chunks {
			rb.Chunks[i].Payload = payload
		}
		got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		out := rb.CorruptCopy(got).(*replChunkBatch)
		hit := 0
		if frames > 1 {
			hit = want.Intn(frames)
		}
		at := want.Intn(len(payload))
		if got.Int63() != want.Int63() {
			t.Errorf("%d frames: CorruptCopy consumed a different number of draws", frames)
		}
		for i := range out.Chunks {
			clean := bytes.Equal(out.Chunks[i].Payload, payload)
			if clean == (i == hit) {
				t.Errorf("%d frames: frame %d clean=%v, flip belongs in frame %d", frames, i, clean, hit)
			}
		}
		if out.Chunks[hit].Payload[at] != 0x11^0xA5 {
			t.Errorf("%d frames: flip is not at the drawn byte %d", frames, at)
		}
		if payload[at] != 0x11 {
			t.Fatalf("%d frames: CorruptCopy mutated the sender's payload", frames)
		}
	}
}

// TestMiddlePieceLostOrCorrupted faults the middle one of a 640 KiB fsync's
// three pieces, on each hop in turn: its frame vanishes, or arrives with a
// flipped byte (on the last hop, where the bytes are written one-sided, the
// note vanishes or the bytes in the mirror log are flipped under it). The
// third piece arrives behind the hole and must wait there unacknowledged: the
// fsync stays out with exactly the first piece replicated until the primary's
// retransmit layer resends, one resend interval later, and then completes
// with every replica holding the file.
func TestMiddlePieceLostOrCorrupted(t *testing.T) {
	t.Parallel()
	const size = 640 << 10
	for _, tc := range []struct {
		name    string
		hop     int // the machine the faulted frame is bound for
		corrupt bool
	}{
		{"drop on hop 1", 1, false},
		{"corrupt on hop 1", 1, true},
		{"drop on hop 2", 2, false},
		{"corrupt on hop 2", 2, true},
	} {
		cfg := testConfig()
		cfg.ChunkSize = 4 << 20
		env, cl := newTestCluster(t, cfg)
		payload := bytes.Repeat([]byte{0xB7}, size)
		var took time.Duration
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			l, _ := cl.Attach(p, 0)
			fd, _ := l.Create(p, "/pieces")
			if err := l.Fsync(p, fd); err != nil { // one ack observed: resends run on the floor
				t.Fatal(err)
			}
			p.Sleep(10 * time.Millisecond)
			cs := cl.NICs[0].clients[0]
			from := cs.queued // the middle piece is the one that neither starts here nor ends at head

			// Tap the faulted machine's services: the first frame of the
			// middle piece is the one hit, its resend goes through.
			hit := false
			m := cl.Machines[tc.hop]
			fault := func(msg *rdma.Msg) (deliver bool) {
				_, mFrom, mTo, ok := replSpan(msg.Arg)
				if !ok || hit || mFrom == from || mTo == l.Log().Head() {
					return true
				}
				hit = true
				if !tc.corrupt {
					return false
				}
				if rb, ok := msg.Arg.(*replChunkBatch); ok {
					msg.Arg = rb.CorruptCopy(rand.New(rand.NewSource(1)))
				} else {
					seg := fs.NewLogView(cl.LogBase(0), cfg.LogSize).SegmentAt(mFrom, 1)
					var b [1]byte
					m.PM.ReadNoCost(seg.PhysOff, b[:])
					b[0] ^= 0xA5
					m.PM.WriteNoCost(seg.PhysOff, b[:])
				}
				return true
			}
			tapNIC(env, cl, tc.hop, fault)

			for off := 0; off < size; off += 4 << 10 {
				if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+4<<10]); err != nil {
					t.Fatal(err)
				}
			}
			env.Go("midway", func(cp *sim.Proc) {
				cp.Sleep(5 * time.Millisecond) // all three pieces have been down the chain, no resend yet
				if cs.repOff <= from || cs.repOff >= l.Log().Head()-size/2 || cl.Robust.RepResends != 0 {
					t.Errorf("%s: 5ms in, replicated through %d after %d resends; want the first piece of [%d,%d) alone, unresent",
						tc.name, cs.repOff, cl.Robust.RepResends, from, l.Log().Head())
				}
			})
			start := p.Now()
			if err := l.Fsync(p, fd); err != nil {
				t.Fatalf("%s: fsync: %v", tc.name, err)
			}
			took = time.Duration(p.Now() - start)
			p.Sleep(time.Second)
			assertReplicasHold(t, cl, "/pieces", payload)
		})
		env.Shutdown()
		if took < 5*time.Millisecond || took > 2*resendFloor+time.Millisecond {
			t.Errorf("%s: fsync took %v, want one resend interval (%v to %v)", tc.name, took, resendFloor, 2*resendFloor)
		}
		wantCRC := int64(0)
		if tc.corrupt {
			wantCRC = 1
		}
		if cl.Robust.RepResends != 1 || cl.Robust.CRCRejected != wantCRC || cl.Robust.RPCTimeouts != 0 {
			t.Errorf("%s: %d resends, %d CRC rejections, %d RPC timeouts; want 1, %d, 0",
				tc.name, cl.Robust.RepResends, cl.Robust.CRCRejected, cl.Robust.RPCTimeouts, wantCRC)
		}
	}
}
