package core

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/fs"
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
		ents, err := ms.log.DecodeRange(fs.NoCostCtx(cl.Machines[mi].PM), 0, ms.log.Head())
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
