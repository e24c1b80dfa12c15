package core

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/sim"
)

// fsyncTrip is what one write+fsync on an idle cluster looked like.
type fsyncTrip struct {
	took time.Duration // the fsync alone
	// sync says the fsync formed the chunk itself, rather than waiting for
	// one a doorbell had formed; publishedFirst that the chunk had been
	// published locally by the time it went on the wire.
	sync, publishedFirst bool
}

// fsyncOnce attaches a client to node 0, lets the create settle, then writes
// payload to path and fsyncs it, watching the one chunk that forms.
func fsyncOnce(t *testing.T, p *sim.Proc, cl *Cluster, path string, payload []byte) (trip fsyncTrip) {
	t.Helper()
	l, err := cl.Attach(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := l.Create(p, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Fsync(p, fd); err != nil {
		t.Fatal(err)
	}
	p.Sleep(10 * time.Millisecond)
	cs := cl.NICs[0].clients[0]
	formed := cs.compKick
	cl.Env.Go("watch", func(wp *sim.Proc) {
		wp.Wait(formed)
		ck := cs.pending[len(cs.pending)-1]
		trip.sync = ck.sync
		sent, published := ck.sent, ck.published // the chunk may be recycled by then
		wp.Wait(sent)
		trip.publishedFirst = published.Triggered()
	})
	if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
		t.Fatal(err)
	}
	start := p.Now()
	if err := l.Fsync(p, fd); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	trip.took = time.Duration(p.Now() - start)
	return trip
}

// assertMirrorsEndWith requires the fsynced write to be the last entry of both
// replicas' mirror logs: durable there by the time the fsync returned.
func assertMirrorsEndWith(t *testing.T, cl *Cluster, payload []byte) {
	t.Helper()
	for _, mi := range []int{1, 2} {
		ms := cl.NICs[mi].mirrors[0]
		ents, _, err := ms.log.DecodeRangeScratch(fs.NoCostCtx(cl.Machines[mi].PM), nil, 0, ms.log.Head())
		if err != nil {
			t.Fatalf("node %d mirror decode: %v", mi, err)
		}
		if last := ents[len(ents)-1]; last.Type != fs.OpWrite || !bytes.Equal(last.Data, payload) {
			t.Errorf("node %d mirror does not end with the fsynced write", mi)
		}
	}
}

// TestFsyncDoesNotWaitForKernelWorker wedges the primary's kernel worker —
// its threads are gone, its service still registered, so a copy request
// queues unanswered until the 50 ms timeout — and requires an fsync to
// return as fast as ever: no host thread of the primary is on its path.
// Publication then takes the isolated PCIe route and the log is reclaimed.
func TestFsyncDoesNotWaitForKernelWorker(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	payload := bytes.Repeat([]byte{0x5A}, 4<<10)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		for _, kp := range cl.KWs[0].procs {
			kp.Kill()
		}
		if trip := fsyncOnce(t, p, cl, "/wedged", payload); trip.took >= time.Millisecond || !trip.sync {
			t.Errorf("fsync behind a wedged kernel worker: %+v, want the sync path in under 1ms", trip)
		}
		assertMirrorsEndWith(t, cl, payload)
		p.Sleep(100 * time.Millisecond) // past the copy's timeout
		if !cl.NICs[0].Isolated {
			t.Error("NICFS not isolated after its copy request timed out")
		}
		assertReplicasHold(t, cl, "/wedged", payload)
		if log := cl.NICs[0].clients[0].log; log.Tail() != log.Head() {
			t.Errorf("client log not reclaimed: tail %d, head %d", log.Tail(), log.Head())
		}
	})
}

// TestFsyncDoesNotWaitForReplicaKernelWorkers is the replica-side twin: both
// replicas' kernel workers are wedged the same way, and the fsync still
// returns as fast as ever with no RPC timed out behind it — the mirror-log
// persist goes NIC memory → PM across PCIe and no host thread of a replica is
// on an fsync's path. With Compress both replicas take handleBatch (there is
// no last-hop direct write of compressed bytes). The replicas' publication
// then takes the isolated PCIe route and the mirror rings are reclaimed.
func TestFsyncDoesNotWaitForReplicaKernelWorkers(t *testing.T) {
	t.Parallel()
	for _, compress := range []bool{false, true} {
		cfg := testConfig()
		cfg.Compress = compress
		env, cl := newTestCluster(t, cfg)
		payload := bytes.Repeat([]byte{0xA5}, 4<<10)
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			for _, mi := range []int{1, 2} {
				for _, kp := range cl.KWs[mi].procs {
					kp.Kill()
				}
			}
			trip := fsyncOnce(t, p, cl, "/wedged", payload)
			if trip.took >= time.Millisecond || !trip.sync || cl.Robust.RPCTimeouts != 0 {
				t.Errorf("compress=%v: fsync behind wedged replica kernel workers: %+v with %d RPC timeouts, want the sync path in under 1ms with none",
					compress, trip, cl.Robust.RPCTimeouts)
			}
			assertMirrorsEndWith(t, cl, payload)
			p.Sleep(100 * time.Millisecond) // past the publication copies' timeout
			assertReplicasHold(t, cl, "/wedged", payload)
			for _, mi := range []int{1, 2} {
				if !cl.NICs[mi].Isolated {
					t.Errorf("compress=%v: node %d NICFS not isolated after its copy request timed out", compress, mi)
				}
				if log := cl.NICs[mi].mirrors[0].log; log.Tail() != log.Head() {
					t.Errorf("compress=%v: node %d mirror ring not reclaimed: tail %d, head %d", compress, mi, log.Tail(), log.Head())
				}
			}
		})
		env.Shutdown()
	}
}

// TestFsyncPathCostsWhatTheDoorbellPathCosts sends the same 16 KiB down both
// roads to the chain: an fsync that forms the chunk itself (the chunk size is
// far larger), and a doorbell-formed chunk the fsync only waits for (the
// chunk size is the payload's, as -repbench's latency phase has it). Both
// hand the chunk to publication and to the chain at once, so on an idle
// cluster the fsync costs the same.
func TestFsyncPathCostsWhatTheDoorbellPathCosts(t *testing.T) {
	t.Parallel()
	payload := bytes.Repeat([]byte{0xC3}, 16<<10)
	var took [2]time.Duration
	for i, doorbell := range []bool{false, true} {
		cfg := testConfig()
		if doorbell {
			cfg.ChunkSize, cfg.NotifyChunks = len(payload), 8
		}
		env, cl := newTestCluster(t, cfg)
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			trip := fsyncOnce(t, p, cl, "/road", payload)
			if trip.sync == doorbell {
				t.Errorf("doorbell=%v: the chunk took the other road", doorbell)
			}
			took[i] = trip.took
		})
		env.Shutdown()
	}
	if d := took[0] - took[1]; d.Abs() > time.Microsecond {
		t.Errorf("fsync path %v, doorbell path %v: want them within 1µs", took[0], took[1])
	}
}

// TestNotParallelFsyncStaysSequential pins what LineFS-NotParallel keeps:
// its fsync runs every stage back to back on one thread, so the chunk is
// published before it is sent, and costs what it always has.
func TestNotParallelFsyncStaysSequential(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Parallel = false
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		trip := fsyncOnce(t, p, cl, "/seq", bytes.Repeat([]byte{0x11}, 16<<10))
		if !trip.publishedFirst {
			t.Error("NotParallel fsync sent its chunk before publishing it")
		}
		// Measured at PR 21, the commit that took the mirror-log persist off the
		// replicas' kernel workers — NotParallel's replicas persist NIC → PM across
		// PCIe too. Its own thread's work is what it was at 367fb25, the last
		// commit whose parallel fsync ran inline as well (177.887 µs there).
		if want := 171870 * time.Nanosecond; trip.took != want {
			t.Errorf("NotParallel 16 KiB fsync took %v, want %v", trip.took, want)
		}
	})
}

// largeTrip is what one large write+fsync on an idle cluster looked like.
type largeTrip struct {
	took time.Duration // the fsync alone
	cuts []uint64      // where the sync chunks it formed end, the last aside
	// fetches counts primary-side fetches done by the time the fsync returned;
	// fetchesAtFirstSent, by the time its first sync chunk had gone on the wire.
	fetches, fetchesAtFirstSent int64
}

// largeFsync attaches a client to node 0, lets the create settle, writes size
// bytes as 4 KiB entries and fsyncs them: through the client, which offers its
// cuts, or (pieces=false) straight through the backend with none — the
// one-chunk path, with the system call charged by hand.
func largeFsync(t *testing.T, cfg Config, size int, pieces bool) (trip largeTrip) {
	t.Helper()
	cfg.ChunkSize = 4 << 20 // as DefaultConfig: no doorbell below 4 MiB
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := l.Create(p, "/large")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * time.Millisecond)
		payload := bytes.Repeat([]byte{0x3C}, size)
		for off := 0; off < size; off += 4 << 10 {
			if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+4<<10]); err != nil {
				t.Fatal(err)
			}
		}
		cs, fetch := cl.NICs[0].clients[0], cl.NICs[0].StageTimes["fetch"]
		formed, before := cs.compKick, fetch.N
		cl.Env.Go("watch", func(wp *sim.Proc) {
			wp.Wait(formed) // formation is atomic: every piece is in pending by now
			var first *sim.Event
			for _, ck := range cs.pending {
				if ck.sync && first == nil {
					first = ck.sent
				}
				if ck.sync && ck.to < cs.queued {
					trip.cuts = append(trip.cuts, ck.to)
				}
			}
			wp.Wait(first)
			trip.fetchesAtFirstSent = fetch.N - before
		})
		start := p.Now()
		if pieces {
			err = l.Fsync(p, fd)
		} else {
			cl.LibFS(0, 0).Syscall(p)
			err = l.backend.Fsync(p, l.Log().Head(), nil)
		}
		if err != nil {
			t.Fatalf("fsync: %v", err)
		}
		trip.took, trip.fetches = time.Duration(p.Now()-start), fetch.N-before

		// The same request again, as a retry after a lost response would send
		// it: everything through Head is queued, so nothing forms.
		queued, chunks := cs.queued, cl.NICs[0].RepChunksSent
		if err := l.backend.Fsync(p, l.Log().Head(), trip.cuts); err != nil {
			t.Fatalf("retried fsync: %v", err)
		}
		if cs.queued != queued || cl.NICs[0].RepChunksSent != chunks {
			t.Errorf("a retried fsync formed chunks: queued %d -> %d, sent %d -> %d",
				queued, cs.queued, chunks, cl.NICs[0].RepChunksSent)
		}
		p.Sleep(100 * time.Millisecond) // background publication
		assertReplicasHold(t, cl, "/large", payload)
	})
	if cl.Robust.Any() {
		t.Errorf("%d bytes, pieces=%v: a robustness counter moved on a fault-free run: %+v", size, pieces, cl.Robust)
	}
	return trip
}

// TestLargeFsyncStreams: an fsync range over a piece long goes down the chain
// as the client's pieces, and the stages that used to run one after the other
// on the whole range — fetch, both wire hops, both persists — overlap across
// them. Properties, not numbers: the first piece is on the wire before the
// last is fetched, 640 KiB (three pieces) return at least a quarter sooner
// than as one chunk, and no size is slower for being cut. Where the stage
// behind validation needs the whole range (Compress: one codecGate hold) or
// there is no stage behind it (LineFS-NotParallel), the cuts are ignored.
func TestLargeFsyncStreams(t *testing.T) {
	t.Parallel()
	if link := hw.NewLink(sim.NewEnv(1), "l", 0, 1e9); dfs.FsyncPiece != subBlockSize || dfs.FsyncPiece != link.MaxSeg {
		t.Errorf("dfs.FsyncPiece %d, subBlockSize %d, a link's MaxSeg %d: a piece is meant to be one of each",
			dfs.FsyncPiece, subBlockSize, link.MaxSeg)
	}

	cut, whole := largeFsync(t, testConfig(), 640<<10, true), largeFsync(t, testConfig(), 640<<10, false)
	if len(cut.cuts) != 2 || len(whole.cuts) != 0 {
		t.Fatalf("640 KiB formed sync chunks cut at %v with the client's cuts and %v without; want 2 cuts and none", cut.cuts, whole.cuts)
	}
	if cut.fetches != 3 || cut.fetchesAtFirstSent >= cut.fetches {
		t.Errorf("the first piece went on the wire after %d of %d fetches; want it gone before the last", cut.fetchesAtFirstSent, cut.fetches)
	}
	t.Logf("640 KiB fsync: %v in pieces, %v as one chunk", cut.took, whole.took)
	if cut.took > whole.took*3/4 {
		t.Errorf("640 KiB fsync: %v in pieces, %v as one chunk; want at least 25%% less", cut.took, whole.took)
	}

	for _, kib := range []int{4, 200, 300, 320, 420, 1 << 10, 2 << 10, 3992} {
		cut, whole := largeFsync(t, testConfig(), kib<<10, true), largeFsync(t, testConfig(), kib<<10, false)
		t.Logf("%d KiB fsync: %v in pieces, %v as one chunk", kib, cut.took, whole.took)
		if cut.took > whole.took {
			t.Errorf("%d KiB fsync: %v in pieces (cuts %v), %v as one chunk", kib, cut.took, cut.cuts, whole.took)
		}
	}

	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"Compress", func(c *Config) { c.Compress = true }},
		{"NotParallel", func(c *Config) { c.Parallel = false }},
	} {
		cfg := testConfig()
		tc.set(&cfg)
		if trip := largeFsync(t, cfg, 640<<10, true); len(trip.cuts) != 0 || trip.fetches != 1 {
			t.Errorf("%s: 640 KiB fsync formed sync chunks cut at %v, %d fetches; want one chunk", tc.name, trip.cuts, trip.fetches)
		}
	}
}
