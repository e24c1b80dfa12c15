package core

import (
	"bytes"
	"fmt"
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
		in, err := cl.Vols[mi].ReadInode(ctx, ino)
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
	if cl.Robust.FramesCorrupted == 0 {
		t.Error("corruption rule never engaged")
	}
	if cl.Robust.CRCRejected == 0 {
		t.Error("mirror accepted corrupted frames; CRC gate never fired")
	}
	assertReplicasHold(t, cl, "/crc", payload)
}

// TestCorruptedCompressedFrameRepaired is the same corrupting link under
// Compress: the flipped byte now lands inside one sub-block's LZW stream,
// and the frame dies at its Sum, before the mirror relays or decodes it.
// Nothing of it may be persisted, forwarded or acknowledged while the link
// corrupts, and the retransmit layer repairs every chunk once it heals.
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
			if cl.Robust.CRCRejected == 0 {
				t.Error("no corrupted frame was counted at its sum")
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

// TestCrashKillsMirrorForwards crashes replica 1 while its forward of a raw
// batch is on the wire: the moment replica 1 counts its first replication
// message, which only a forward sends there. The forward, a process its
// mirror started, dies with its NICFS's group: replica 2 never
// receives that batch, so it persists and acknowledges nothing, and the fsync
// stays parked (the chain after the resweep does not hold the bytes). A
// forward that outlived its node finished the relay from a dead SmartNIC,
// and the fsync completed on it.
func TestCrashKillsMirrorForwards(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 4 << 20
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	crashed, fsyncDone := false, false
	env.Go("app", func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/fwd")
		// One 4 MiB bulk chunk: a range the fsync cuts into pieces would
		// send a later piece to the dead replica, whose send error
		// completes the range in degraded mode.
		l.WriteAt(p, fd, 0, bytes.Repeat([]byte{0x3C}, 4<<20))
		l.Fsync(p, fd)
		fsyncDone = true
	})
	env.Go("crasher", func(p *sim.Proc) {
		for ; !crashed; p.Sleep(5 * time.Microsecond) {
			if cl.NICs[1].RepMsgs > 0 {
				cl.NICs[1].Crash()
				crashed = true
			}
		}
	})
	env.RunUntil(20 * time.Second)
	if !crashed {
		t.Fatal("never caught a forward on the wire")
	}
	if ms := cl.NICs[2].mirrors[0]; ms != nil && ms.log.Head() != 0 {
		t.Errorf("replica 2 persisted through %d from a dead replica's forward", ms.log.Head())
	}
	if fsyncDone {
		t.Error("fsync completed though replica 2 never got the batch")
	}
}

// TestNICFSCrashIsDeterministic crashes node 0's NICFS under seven clients'
// writes: three attached there, so it runs three slots' pipelines, and two on
// each other node, so it mirrors their chains. Each crash time runs eight
// times with the sanitizer on, and every run of a time must fold one digest.
// A crash that walked the clients and mirrors in map order killed them, and
// so ran everything after, in a different order on each run. About 4 s.
func TestNICFSCrashIsDeterministic(t *testing.T) {
	t.Parallel()
	data := bytes.Repeat([]byte{0x6E}, 64<<10)
	digest := func(at time.Duration) sim.Digest {
		cfg := testConfig()
		cfg.MaxClients = 7
		cfg.InoRangePerClient = 1024
		env, cl := newTestCluster(t, cfg)
		defer env.Shutdown()
		env.EnableTrace()
		for i, machine := range []int{0, 0, 0, 1, 1, 2, 2} {
			env.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
				l, err := cl.Attach(p, machine)
				if err != nil {
					t.Errorf("attach %d: %v", i, err)
					return
				}
				fd, _ := l.Create(p, fmt.Sprintf("/f%d", i))
				for off := uint64(0); off < 6<<20; off += uint64(len(data)) {
					if _, err := l.WriteAt(p, fd, off, data); err != nil {
						return
					}
				}
				_ = l.Fsync(p, fd)
			})
		}
		env.Go("crash", func(p *sim.Proc) {
			p.Sleep(at)
			cl.NICs[0].Crash()
		})
		env.RunUntil(40 * time.Millisecond)
		return env.TraceDigest()
	}
	for _, at := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond} {
		seen := map[sim.Digest]int{}
		for range 8 {
			seen[digest(at)]++
		}
		if len(seen) != 1 {
			t.Errorf("crash at %v: %d different digests in 8 runs: %v", at, len(seen), seen)
		}
	}
}

// TestCrashStopsFsyncHandler crashes the primary's NICFS while its fsync
// handler codes the sync chunk inline (LineFS-NotParallel under Compress,
// tens of milliseconds of one core's time). The handler dies with its NICFS:
// the dead SmartNIC computes nothing further, and the client's fsync fails.
func TestCrashStopsFsyncHandler(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 4 << 20
	cfg.Compress, cfg.Parallel = true, false
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	nic := cl.Machines[0].NICCPU
	var busyAfterCrash time.Duration
	crashed, fsyncDone := false, false
	var fsyncErr error
	env.Go("app", func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/handler")
		l.WriteAt(p, fd, 0, logOf(sortRecords(rand.New(rand.NewSource(4)), 0.6), 1<<20)[:1<<20])
		fsyncErr = l.Fsync(p, fd)
		fsyncDone = true
	})
	env.Go("crasher", func(p *sim.Proc) {
		for ; !crashed; p.Sleep(50 * time.Microsecond) {
			if cs := cl.NICs[0].clients[0]; cs != nil && len(cs.pending) > 0 && cs.pending[0].sync && cs.pending[0].valid {
				p.Sleep(time.Millisecond) // into the inline compress
				cl.NICs[0].Crash()
				crashed = true
			}
		}
		p.Sleep(time.Millisecond)
		busyAfterCrash = nic.Util.TotalBusy()
	})
	env.RunUntil(20 * time.Second)
	if !crashed {
		t.Fatal("never caught the fsync handler's chunk")
	}
	if busy := nic.Util.TotalBusy(); busy != busyAfterCrash {
		t.Errorf("dead SmartNIC computed for another %v", busy-busyAfterCrash)
	}
	if !fsyncDone || fsyncErr == nil {
		t.Errorf("fsync done=%v err=%v; want an error from the dead NICFS", fsyncDone, fsyncErr)
	}
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
// either of its services, from a peer or from its own host, passes through
// it, and is handed on — to the queue NICFS would have named for its
// connection — only if it says so.
func tapNIC(env *sim.Env, cl *Cluster, mi int, deliver func(*rdma.Msg) bool) {
	n, m := cl.NICs[mi], cl.Machines[mi]
	taps := map[*rdma.Conn]*sim.Queue[*rdma.Msg]{}
	tap := func(c *rdma.Conn) *sim.Queue[*rdma.Msg] {
		if q := taps[c]; q != nil {
			return q
		}
		q := sim.NewQueue[*rdma.Msg](env, 0)
		taps[c] = q
		env.Go("tap/"+c.Service, func(p *sim.Proc) {
			for {
				m, ok := q.Get(p)
				if !ok {
					return
				}
				if deliver(m) {
					n.lane(c).Put(p, m)
				}
			}
		})
		return q
	}
	m.Port.RegisterPerConn(svcNICFS, tap)
	m.NICPort.RegisterPerConn(svcNICFS, tap)
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

// TestCoalescedDoorbellUnderFaults is the fault schedule the chaos harness
// never plays — it raises the chunk size past every round, so none of its
// doorbells carries marks. At 128 KiB chunks a doorbell carries eight
// boundaries; 2 MiB streams in 16 KiB writes while the primary's frames to
// the first replica are dropped and duplicated, then the link heals and the
// fsync returns. Every chunk a coalesced doorbell formed must be resent until
// acknowledged, with no control RPC timing out, the replicas must hold the
// bytes, and once healed the chain must be back to acks that all advance.
func TestCoalescedDoorbellUnderFaults(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	doorbells := 0
	tapNIC(env, cl, 0, func(m *rdma.Msg) bool {
		if m.Op == "chunk-ready" {
			doorbells++
		}
		return true
	})
	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(5)).Read(payload)
	var stale int64
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/doorbell")
		if err := l.Fsync(p, fd); err != nil { // one ack observed: resends run on the floor
			t.Fatal(err)
		}
		fp.SetRule("node0", "node1", rdma.FaultRule{Drop: 0.3, Dup: 0.3})
		env.Go("heal", func(hp *sim.Proc) {
			hp.Sleep(100 * time.Millisecond)
			fp.ClearRules()
		})
		for off := 0; off < len(payload); off += 16 << 10 {
			if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+16<<10]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync across a dropping, duplicating link: %v", err)
		}
		p.Sleep(time.Second)
		// Healed and drained: another doorbell's worth must be acked cleanly.
		stale = cl.Robust.StaleAcks
		more := payload[:256<<10]
		for off := 0; off < len(more); off += 16 << 10 {
			if _, err := l.WriteAt(p, fd, uint64(len(payload)+off), more[off:off+16<<10]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(time.Second)
		payload = append(payload, more...)
	})
	t.Logf("%d doorbells, %d chunks; %s", doorbells, cl.NICs[0].RepChunksSent, cl.Robust.Summary())
	if chunks := cl.NICs[0].RepChunksSent; int64(doorbells) >= chunks {
		t.Errorf("%d doorbells for %d chunks: want fewer doorbells than chunks", doorbells, chunks)
	}
	if cl.Robust.FramesDropped == 0 || cl.Robust.FramesDuplicated == 0 || cl.Robust.RepResends == 0 {
		t.Errorf("dropped %d, duplicated %d, resent %d: want the faults met and repaired",
			cl.Robust.FramesDropped, cl.Robust.FramesDuplicated, cl.Robust.RepResends)
	}
	if cl.Robust.RPCTimeouts != 0 {
		t.Errorf("%d control RPCs timed out", cl.Robust.RPCTimeouts)
	}
	if cl.Robust.StaleAcks != stale {
		t.Errorf("%d stale acks after the heal", cl.Robust.StaleAcks-stale)
	}
	assertReplicasHold(t, cl, "/doorbell", payload)
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
			fault := func(msg *rdma.Msg) (deliver bool) {
				rb, ok := msg.Arg.(*replChunkBatch)
				if !ok || hit || rb.From == from || rb.To == l.Log().Head() {
					return true
				}
				hit = true
				if !tc.corrupt {
					return false
				}
				msg.Arg = rb.CorruptCopy(rand.New(rand.NewSource(1)))
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
