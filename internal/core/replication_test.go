package core

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/sim"
)

// assertNoStaleAcks fails the test if any node saw a replication ack it
// could not apply: on a healthy run every ack must advance a watermark.
func assertNoStaleAcks(t *testing.T, cl *Cluster) {
	t.Helper()
	for mi, n := range cl.NICs {
		if n.StaleAcks != 0 {
			t.Errorf("node %d dropped %d stale acks on a healthy run", mi, n.StaleAcks)
		}
	}
}

// TestBatchingCoalescesWireMessages drives a multi-chunk backlog down the
// chain and checks that doorbell batching actually amortizes — fewer data
// messages than chunks — with replica contents intact.
func TestBatchingCoalescesWireMessages(t *testing.T) {
	t.Parallel()
	payload := bytes.Repeat([]byte{0xC4}, 4<<20)
	cfg := testConfig()
	cfg.ChunkSize = 256 << 10 // 16 chunks of backlog
	env, cl := newTestCluster(t, cfg)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/batched")
		// One chunk-sized write per chunk: each paces a chunk-ready
		// notification, so the sender sees a genuine multi-chunk backlog.
		step := cfg.ChunkSize
		for off := 0; off < len(payload); off += step {
			if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+step]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(2 * time.Second)
	})
	assertReplicasHold(t, cl, "/batched", payload)
	n0 := cl.NICs[0]
	if n0.RepChunksSent == 0 {
		t.Fatal("no chunks replicated")
	}
	if n0.RepMsgs >= n0.RepChunksSent {
		t.Errorf("%d messages for %d chunks, want coalescing", n0.RepMsgs, n0.RepChunksSent)
	}
	if n0.AckMsgs == 0 {
		t.Error("no acks recorded")
	}
	assertNoStaleAcks(t, cl)
}

// TestCumulativeAckCoversBatch checks the watermark protocol end to end on
// the happy path: every data message a replica receives is answered by
// exactly one cumulative ack, and none of them is stale at the primary.
func TestCumulativeAckCoversBatch(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 256 << 10
	env, cl := newTestCluster(t, cfg)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/acks")
		l.WriteAt(p, fd, 0, bytes.Repeat([]byte{0xAC}, 2<<20))
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(2 * time.Second)
	})
	n0 := cl.NICs[0]
	// Two replicas ack independently; batching means acks number far fewer
	// than chunks, but at least one per replica must have arrived.
	if n0.AckMsgs < 2 {
		t.Fatalf("primary saw %d acks, want at least one per replica", n0.AckMsgs)
	}
	if n0.AckMsgs > 2*n0.RepMsgs {
		t.Fatalf("%d acks for %d data messages: acks must be per-message, not per-chunk", n0.AckMsgs, n0.RepMsgs)
	}
	assertNoStaleAcks(t, cl)
	// The fsync path must have left nothing pending.
	cs := n0.clients[0]
	if len(cs.repPending) != 0 {
		t.Fatalf("%d chunks still pending replication after fsync", len(cs.repPending))
	}
}

// TestHistoryBoundedUnderWriteStream regression-tests the unbounded
// NICFS.history growth: a long stream of writes to one file used to append
// one record per log entry per chunk forever. Data-write records are
// idempotent for recovery, so per epoch the history must stay bounded by
// the touched working set (files + namespace ops), not the write count.
func TestHistoryBoundedUnderWriteStream(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	const writes = 256
	run(t, env, 300*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/stream")
		buf := make([]byte, 32<<10)
		for i := 0; i < writes; i++ {
			if _, err := l.WriteAt(p, fd, uint64(i*len(buf)), buf); err != nil {
				t.Fatal(err)
			}
			if i%32 == 31 {
				if err := l.Fsync(p, fd); err != nil {
					t.Fatal(err)
				}
			}
		}
		l.Fsync(p, fd)
		p.Sleep(2 * time.Second)
	})
	for mi, n := range cl.NICs {
		total := 0
		for _, ts := range n.history {
			total += len(ts)
		}
		// One create plus one data-write record per (epoch, inode): a few
		// records, not one per 32 KiB write.
		if total > 16 {
			t.Errorf("node %d history holds %d records after %d writes to one file", mi, total, writes)
		}
	}
	assertNoStaleAcks(t, cl)
}

// TestHistoryPrunedAcrossEpochs checks that history from epochs no
// recovering peer can still request is reclaimed once the cluster is whole
// again, while the retention window (current plus two previous epochs)
// survives.
func TestHistoryPrunedAcrossEpochs(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	run(t, env, 300*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/epochs")
		// Three crash/recover cycles of node2: each cycle bumps the epoch
		// twice (down, then up), with a write landing in every epoch.
		for cycle := 0; cycle < 3; cycle++ {
			l.WriteAt(p, fd, uint64(cycle)<<20, bytes.Repeat([]byte{byte(cycle)}, 64<<10))
			l.Fsync(p, fd)
			cl.NICs[2].Crash()
			p.Sleep(time.Second)
			if err := cl.NICs[2].Recover(p, 1); err != nil {
				t.Fatalf("cycle %d recover: %v", cycle, err)
			}
			p.Sleep(2 * time.Second)
		}
	})
	epoch := cl.Mgr.Epoch()
	if epoch < 6 {
		t.Fatalf("epoch = %d after three crash/recover cycles, want >= 6", epoch)
	}
	n0 := cl.NICs[0]
	for e := range n0.history {
		if e < epoch-2 {
			t.Errorf("epoch %d history survived pruning (current epoch %d)", e, epoch)
		}
	}
	for e := range n0.histSeen {
		if e < epoch-2 {
			t.Errorf("epoch %d dedup index survived pruning (current epoch %d)", e, epoch)
		}
	}
}

// TestReplicaFailureMidBatchReleasesFsync kills the tail replica with a
// batch in flight: its acks never arrive, so the fsync waiter is parked on
// the dead node's watermark until the manager detects the failure and
// PeerDown's resweep completes the pending chunks against the surviving
// chain. After the replica recovers, further writes replicate to it again
// and nothing is published twice.
func TestReplicaFailureMidBatchReleasesFsync(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	cfg.ChunkSize = 128 << 10
	env, cl := newTestCluster(t, cfg)
	part1 := bytes.Repeat([]byte{0xE1}, 1<<20)
	part2 := bytes.Repeat([]byte{0xE2}, 256<<10)
	run(t, env, 300*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/midbatch")
		// Queue a multi-chunk backlog, then kill node2 before the sync
		// flush: batches reach node1, which forwards into the dead node and
		// acks alone; node2's watermark goes silent mid-batch.
		l.WriteAt(p, fd, 0, part1)
		cl.NICs[2].Crash()
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync with tail replica dead: %v", err)
		}
		// The fsync returned, so the resweep released the waiter; nothing
		// may remain pending on the primary.
		cs := cl.NICs[0].clients[0]
		if len(cs.repPending) != 0 {
			t.Fatalf("%d chunks pending after resweep released fsync", len(cs.repPending))
		}
		if cl.Mgr.Alive("node2") {
			t.Fatal("fsync completed before the manager detected the failure")
		}

		// Let the survivors' background publication drain: recovery fetches
		// file content from the peer's public area.
		p.Sleep(time.Second)

		// Recover the replica and write more: the chain is whole again.
		if err := cl.NICs[2].Recover(p, 1); err != nil {
			t.Fatalf("recover: %v", err)
		}
		p.Sleep(2 * time.Second)
		if _, err := l.WriteAt(p, fd, uint64(len(part1)), part2); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync after recovery: %v", err)
		}
		p.Sleep(2 * time.Second)
	})
	// No double-publish: every node's public copy is byte-identical to the
	// single logical write stream.
	want := append(append([]byte(nil), part1...), part2...)
	for mi := 0; mi < 3; mi++ {
		ctx := fs.NoCostCtx(cl.Machines[mi].PM)
		ino, err := cl.Vols[mi].Resolve(ctx, "/midbatch")
		if err != nil {
			t.Fatalf("node %d: %v", mi, err)
		}
		in, err := cl.Vols[mi].Stat(ctx, ino)
		if err != nil {
			t.Fatalf("node %d stat: %v", mi, err)
		}
		if in.Size != uint64(len(want)) {
			t.Fatalf("node %d size = %d, want %d (double-publish?)", mi, in.Size, len(want))
		}
		got := make([]byte, len(want))
		n, err := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
		if err != nil || n != len(want) || !bytes.Equal(got, want) {
			t.Fatalf("node %d content mismatch after recovery (n=%d err=%v)", mi, n, err)
		}
	}
}
