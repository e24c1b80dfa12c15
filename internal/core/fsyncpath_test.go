package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/rdma"
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

// workerBatch is a publication batch above the PCIe crossover, which the
// kernel worker copies while it is up.
const workerBatch = 64 << 10

// TestFsyncDoesNotWaitForKernelWorker wedges the primary's kernel worker —
// its threads are gone, its service still registered, so a copy request
// queues unanswered until the 50 ms timeout — and requires an fsync to
// return as fast as ever: no host thread of the primary is on its path.
// Publication then takes the isolated PCIe route and the log is reclaimed.
func TestFsyncDoesNotWaitForKernelWorker(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	payload := bytes.Repeat([]byte{0x5A}, workerBatch)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		cl.KWs[0].g.Kill()
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
// returns exactly as fast as beside serving ones, with no RPC timed out behind
// it — the mirror-log persist goes NIC memory → PM across PCIe and no host
// thread of a replica is on an fsync's path. With Compress both replicas take
// handleBatch (there is no last-hop direct write of compressed bytes). The
// replicas' publication then takes the isolated PCIe route and the mirror
// rings are reclaimed.
func TestFsyncDoesNotWaitForReplicaKernelWorkers(t *testing.T) {
	t.Parallel()
	payload := bytes.Repeat([]byte{0xA5}, workerBatch)
	for _, compress := range []bool{false, true} {
		cfg := testConfig()
		cfg.Compress = compress
		env, cl := newTestCluster(t, cfg)
		var serving time.Duration
		run(t, env, 10*time.Second, func(p *sim.Proc) { serving = fsyncOnce(t, p, cl, "/serving", payload).took })
		env.Shutdown()

		env, cl = newTestCluster(t, cfg)
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			for _, mi := range []int{1, 2} {
				cl.KWs[mi].g.Kill()
			}
			trip := fsyncOnce(t, p, cl, "/wedged", payload)
			if trip.took != serving || !trip.sync || cl.Robust.RPCTimeouts != 0 {
				t.Errorf("compress=%v: fsync behind wedged replica kernel workers: %+v with %d RPC timeouts, want the sync path in %v with none",
					compress, trip, cl.Robust.RPCTimeouts, serving)
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

// slowKWorkers makes the kernel workers of machines slow, not dead: each
// holds every copy request for hold (60 ms is past publishItems' 50 ms
// deadline), then serves it. It returns each machine's copy requests, in
// arrival order.
func slowKWorkers(env *sim.Env, cl *Cluster, hold time.Duration, machines ...int) map[int][]*copyReq {
	reqs := make(map[int][]*copyReq)
	for _, mi := range machines {
		kw := cl.KWs[mi]
		kw.g.Kill()
		env.Go("slow-kworker", func(kp *sim.Proc) {
			for {
				msg, ok := kw.q.Get(kp)
				if !ok {
					return
				}
				if msg.Op == "copy" {
					reqs[mi] = append(reqs[mi], msg.Arg.(*copyReq))
					kp.Sleep(hold)
				}
				kw.serve(kp, msg)
			}
		})
	}
	return reqs
}

// inside reports whether d's first byte lies in b's storage.
func inside(b, d []byte) bool {
	full := b[:cap(b)]
	for i := range full {
		if &full[i] == &d[0] {
			return true
		}
	}
	return false
}

// TestLateKernelWorkerCopyRetainsBuffers runs on slow kernel workers. NICFS
// has published across PCIe itself by the time they answer, and the late
// answers are discarded; the buffers those copies may read — the primary's
// chunk, the mirror buffer a range was published from, and each node's copy
// list — must not have gone back to their pools, where the next chunk would
// overwrite what a late copy reads.
func TestLateKernelWorkerCopyRetainsBuffers(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	payload := bytes.Repeat([]byte{0x6B}, workerBatch)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/late")
		if _, err := l.WriteAt(p, fd, 0, payload[:4<<10]); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * time.Millisecond)
		cs, mirrors := cl.NICs[0].clients[0], []*mirrorState{cl.NICs[1].mirrors[0], cl.NICs[2].mirrors[0]}
		if len(cs.freeCk) != 1 || len(mirrors[0].bufs) != 1 || len(mirrors[1].bufs) != 1 {
			t.Fatalf("pools after the first fsync: %d chunks, %d and %d mirror buffers; want one each",
				len(cs.freeCk), len(mirrors[0].bufs), len(mirrors[1].bufs))
		}
		if cs.pubItems == nil || mirrors[0].pubItems == nil || mirrors[1].pubItems == nil {
			t.Fatal("a publication left no copy list to reuse")
		}
		late := slowKWorkers(env, cl, 60*time.Millisecond, 0, 1, 2)
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(100 * time.Millisecond) // past the late answers
		if got := cl.Robust.RepliesDiscarded; got != 3 {
			t.Errorf("%d late copy answers discarded, want one per node", got)
		}
		if len(cs.freeCk) != 0 || cs.pubItems != nil {
			t.Error("the primary recycled a chunk or a copy list a timed-out copy read")
		}
		for i, ms := range mirrors {
			if len(late[i+1]) == 0 || ms.pubItems != nil {
				t.Errorf("node %d's mirror sent no late copy, or recycled the copy list one read", i+1)
			}
			for _, req := range late[i+1] {
				for _, it := range req.Items {
					for _, b := range ms.bufs {
						if inside(b, it.Data) {
							t.Errorf("node %d's mirror pooled a buffer a timed-out copy read", i+1)
						}
					}
				}
			}
		}
		assertReplicasHold(t, cl, "/late", payload)
	})
}

// TestLateKernelWorkerCopyNeverLandsOverNewer writes one offset twice on slow
// kernel workers, fsyncing each version. The first version's copies time out
// and NICFS publishes both versions across PCIe itself; the late copies must
// not land over the newer bytes afterwards, for by then the logs that held
// them are reclaimed and nothing would repair the file.
func TestLateKernelWorkerCopyNeverLandsOverNewer(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	older, newer := bytes.Repeat([]byte{0x11}, workerBatch), bytes.Repeat([]byte{0x22}, workerBatch)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/twice")
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * time.Millisecond)
		slowKWorkers(env, cl, 60*time.Millisecond, 0, 1, 2)
		for _, payload := range [][]byte{older, newer} {
			if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
				t.Fatal(err)
			}
			if err := l.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(300 * time.Millisecond) // past the late copies
		for mi, n := range cl.NICs {
			if !n.Isolated {
				t.Errorf("node %d NICFS not isolated after its copy request timed out", mi)
			}
		}
		assertReplicasHold(t, cl, "/twice", newer)
	})
}

// TestSmallPublicationsSkipTheHost: a publication batch under the PCIe
// crossover — every 4 KiB fsync's — goes NIC memory → PM with no host thread
// on any node; one byte above it, the kernel worker copies it.
func TestSmallPublicationsSkipTheHost(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	crossover := cl.NICs[0].pcieCrossover()
	if want := int(math.Round((kwIssueCost + kwCompletionCost).Seconds() * cl.Cfg.Spec.PCIeBW)); crossover != want || crossover != 27000 {
		t.Errorf("crossover %d bytes, want the worker's %v × PCIe's %.0f B/s = %d (27000 at the default spec)",
			crossover, kwIssueCost+kwCompletionCost, cl.Cfg.Spec.PCIeBW, want)
	}
	batches := func() (b [3]int64) {
		for mi, kw := range cl.KWs {
			b[mi] = kw.Batches
		}
		return b
	}
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/small")
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		before := batches()
		payload := make([]byte, 200*4<<10)
		for i := range payload {
			payload[i] = byte(i / (4 << 10))
		}
		for off := 0; off < len(payload); off += 4 << 10 {
			if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+4<<10]); err != nil {
				t.Fatal(err)
			}
			if err := l.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
		}
		p.Sleep(20 * time.Millisecond) // background publication; the first probe is at 500 ms
		if got := batches(); got != before {
			t.Errorf("200 fsyncs of 4 KiB took kernel-worker batches %v → %v, want none", before, got)
		}
		for _, mi := range []int{1, 2} {
			if busy := cl.Machines[mi].HostCPU.Util.TotalBusy(); busy != 0 {
				t.Errorf("node %d's host was busy %v, want 0", mi, busy)
			}
		}
		assertReplicasHold(t, cl, "/small", payload)

		for _, size := range []int{crossover, crossover + 1} {
			path := fmt.Sprintf("/at-%d", size)
			fd, _ := l.Create(p, path)
			if err := l.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
			before := batches()
			data := bytes.Repeat([]byte{0x7E}, size)
			if _, err := l.WriteAt(p, fd, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := l.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
			p.Sleep(20 * time.Millisecond)
			want := before
			if size > crossover {
				for mi := range want {
					want[mi]++
				}
			}
			if got := batches(); got != want {
				t.Errorf("a %d-byte batch took kernel-worker batches %v → %v, want %v", size, before, got, want)
			}
			assertReplicasHold(t, cl, path, data)
		}
	})
	if cl.Robust.Any() {
		t.Errorf("a robustness counter moved: %s", cl.Robust.Summary())
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
			cfg.ChunkSize = len(payload)
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
		// 177.887 µs while the parallel fsync also ran inline (367fb25); 171.870
		// once the replicas persisted their mirror logs NIC → PM across PCIe;
		// 156.771 since a 16 KiB batch publishes across PCIe too, so the fsync
		// no longer waits out a kernel-worker round trip; 155.213 since the
		// last replica takes the batch as one message, not a one-sided write
		// followed by a note.
		if want := 155213 * time.Nanosecond; trip.took != want {
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
// bytes as 4 KiB entries and fsyncs them, the client cutting the range at
// scale times the cluster's own fsync piece (0: the range goes whole).
func largeFsync(t *testing.T, cfg Config, size int, scale float64) (trip largeTrip) {
	t.Helper()
	cfg.ChunkSize = 4 << 20 // as DefaultConfig: no doorbell below 4 MiB
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	cl.fsyncPiece = int(scale * float64(cl.fsyncPiece))
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
		if err := l.Fsync(p, fd); err != nil {
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
		t.Errorf("%d bytes, piece ×%v: a robustness counter moved on a fault-free run: %+v", size, scale, cl.Robust)
	}
	return trip
}

// TestLargeFsyncStreams: an fsync range over a piece long goes down the chain
// as the client's pieces, and the stages that used to run one after the other
// on the whole range — fetch, both wire hops, both persists — overlap across
// them. Properties, not numbers: the first piece is on the wire before the
// last is fetched, 640 KiB (nine pieces) return at least 35 % sooner than as
// one chunk, and no size is slower for being cut. Where the stage behind
// validation needs the whole range (Compress: one codecGate hold) or there is
// no stage behind it (LineFS-NotParallel), the daemon asks for no pieces.
func TestLargeFsyncStreams(t *testing.T) {
	t.Parallel()
	// A piece is what the wire carries while a NIC core dispatches one
	// message. It is one uninterrupted transfer on each link because of its
	// class, not its size: the fsync path's priority preempts the bulk
	// segment in service, whatever MaxSeg is.
	cfg := testConfig()
	env := sim.NewEnv(1)
	piece := fsyncPieceOf(cfg)
	dispatch := hw.NewCPU(env, "nic", 1, cfg.Spec.NICSpeed).Scale(cfg.Spec.NICRPCCost)
	if want := int(math.Round(dispatch.Seconds() * cfg.Spec.NetBW)); piece != want || piece != 82500 {
		t.Errorf("fsync piece %d bytes, want one %v dispatch × the wire's %.0f B/s = %d (82500 at the default spec)",
			piece, dispatch, cfg.Spec.NetBW, want)
	}
	link := hw.NewLink(env, "l", 0, 1e9)
	var pieceDone sim.Time
	env.Go("bulk", func(p *sim.Proc) { link.Transfer(p, 4<<20, rdma.ClassPrio(false)) })
	env.Go("piece", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		link.Transfer(p, piece, rdma.ClassPrio(true))
		pieceDone = p.Now()
	})
	env.Run()
	if want := sim.Time(time.Microsecond + link.SerializeTime(piece)); pieceDone != want {
		t.Errorf("a piece beside bulk on a link returned at %v, want %v: its arrival plus its own serialization", pieceDone, want)
	}

	cut, whole := largeFsync(t, cfg, 640<<10, 1), largeFsync(t, cfg, 640<<10, 0)
	if len(cut.cuts) != 8 || len(whole.cuts) != 0 {
		t.Fatalf("640 KiB formed sync chunks cut at %v with the client's cuts and %v without; want 8 cuts and none", cut.cuts, whole.cuts)
	}
	if cut.fetches != 9 || cut.fetchesAtFirstSent >= cut.fetches {
		t.Errorf("the first piece went on the wire after %d of %d fetches; want it gone before the last", cut.fetchesAtFirstSent, cut.fetches)
	}
	t.Logf("640 KiB fsync: %v in pieces, %v as one chunk", cut.took, whole.took)
	if cut.took > whole.took*65/100 {
		t.Errorf("640 KiB fsync: %v in pieces, %v as one chunk; want at least 35%% less", cut.took, whole.took)
	}

	for _, kib := range []int{4, 84, 100, 104, 200, 300, 420, 1 << 10, 2 << 10, 3992} {
		cut, whole := largeFsync(t, cfg, kib<<10, 1), largeFsync(t, cfg, kib<<10, 0)
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
		if trip := largeFsync(t, cfg, 640<<10, 1); fsyncPieceOf(cfg) != 0 || len(trip.cuts) != 0 || trip.fetches != 1 {
			t.Errorf("%s: piece %d, 640 KiB fsync formed sync chunks cut at %v, %d fetches; want one chunk",
				tc.name, fsyncPieceOf(cfg), trip.cuts, trip.fetches)
		}
	}
}

// TestFsyncPieceIsTheBalance: the derived piece balances a piece's wire time
// against the dispatch every hop pays per message, so the 640 KiB fsync is no
// slower at it than at half of it (the hops' dispatches become the
// bottleneck) or at twice it (the first piece's fetch and the last piece's
// relay overlap nothing).
func TestFsyncPieceIsTheBalance(t *testing.T) {
	t.Parallel()
	at := largeFsync(t, testConfig(), 640<<10, 1).took
	for _, scale := range []float64{0.5, 2} {
		other := largeFsync(t, testConfig(), 640<<10, scale).took
		t.Logf("640 KiB fsync: %v at the piece, %v at ×%v", at, other, scale)
		if at > other {
			t.Errorf("640 KiB fsync: %v at the derived piece, %v at ×%v of it", at, other, scale)
		}
	}
}
