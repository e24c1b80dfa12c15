package core

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/sim"
)

// TestNICFSCrashRecovery exercises §3.6: a NICFS fails, the cluster manager
// bumps the epoch, progress continues on the survivors, and the restarted
// NICFS recovers the missed namespace history and file contents from a
// peer.
func TestNICFSCrashRecovery(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)

	before := bytes.Repeat([]byte{0xB0}, 64<<10)
	during := bytes.Repeat([]byte{0xD0}, 64<<10)

	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/pre")
		l.WriteAt(p, fd, 0, before)
		l.Fsync(p, fd)
		p.Sleep(time.Second) // publish everywhere

		// Node 2's NICFS dies. The heartbeat notices and bumps the epoch.
		cl.NICs[2].Crash()
		p.Sleep(time.Second)
		if cl.Mgr.Alive("node2") {
			t.Fatal("manager still believes node2 is alive")
		}
		if cl.Mgr.Epoch() == 0 {
			t.Fatal("epoch not bumped on failure")
		}

		// Progress while node2 is down: a new file, fully replicated to
		// node1 (node2's mirror is dark). fsync still succeeds because the
		// chain counts acks from reachable replicas only after the manager
		// reconfigures — here the transfer path reports unreachable and
		// degrades per transferChunk's fallback.
		fd2, _ := l.Create(p, "/during")
		l.WriteAt(p, fd2, 0, during)
		if err := l.Fsync(p, fd2); err != nil {
			t.Fatalf("fsync during NICFS outage: %v", err)
		}
		p.Sleep(time.Second)

		// Restart and recover from node1.
		if err := cl.NICs[2].Recover(p, 1); err != nil {
			t.Fatalf("recover: %v", err)
		}
		p.Sleep(2 * time.Second)
	})

	// After recovery node2's public area has the file created during the
	// outage, fetched from the peer.
	ctx := fs.NoCostCtx(cl.Machines[2].PM)
	ino, err := cl.Vols[2].Resolve(ctx, "/during")
	if err != nil {
		t.Fatalf("recovered namespace missing /during: %v", err)
	}
	got := make([]byte, len(during))
	n, err := cl.Vols[2].ReadFile(ctx, ino, 0, got)
	if err != nil || n != len(during) || !bytes.Equal(got, during) {
		t.Fatalf("recovered content mismatch: n=%d err=%v", n, err)
	}
	// And the pre-existing file is still intact.
	if _, err := cl.Vols[2].Resolve(ctx, "/pre"); err != nil {
		t.Fatalf("pre-existing file lost in recovery: %v", err)
	}
}

// TestRecoverCopiesWhatThePeerHolds crashes node 2's NICFS, and while it is
// down the client unlinks a file in a subdirectory, renames a file, removes
// an empty directory, creates a file in a new subdirectory, and unlinks a
// file whose recycled inode number then comes back as a directory. After
// node 2 recovers from node 1, every listing and every file's bytes on node
// 2 are node 1's.
func TestRecoverCopiesWhatThePeerHolds(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	fill := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	const outage = 48 << 10
	var victim fs.Ino
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		create := func(path string, data []byte) int {
			fd, err := l.Create(p, path)
			must(err)
			_, err = l.WriteAt(p, fd, 0, data)
			must(err)
			return fd
		}
		must(l.Mkdir(p, "/d"))
		must(l.Mkdir(p, "/empty"))
		create("/d/gone", fill(0x11, 20<<10))
		create("/old", fill(0x22, 40<<10))
		must(l.Fsync(p, create("/victim", fill(0x33, 8<<10))))
		p.Sleep(time.Second) // publish everywhere
		victim, _ = cl.Vols[1].Resolve(fs.NoCostCtx(cl.Machines[1].PM), "/victim")

		cl.NICs[2].Crash()
		p.Sleep(time.Second)
		if cl.Mgr.Alive("node2") {
			t.Fatal("manager still believes node2 is alive")
		}
		must(l.Unlink(p, "/d/gone"))
		must(l.Rename(p, "/old", "/new"))
		must(l.Rmdir(p, "/empty"))
		must(l.Mkdir(p, "/sub"))
		fd := create("/sub/f", fill(0x44, outage))
		must(l.Unlink(p, "/victim"))
		must(l.Mkdir(p, "/reborn"))
		must(l.Fsync(p, fd))
		p.Sleep(time.Second)

		if err := cl.NICs[2].Recover(p, 1); err != nil {
			t.Fatalf("recover: %v", err)
		}
		p.Sleep(time.Second)
	})
	ctx1, ctx2 := fs.NoCostCtx(cl.Machines[1].PM), fs.NoCostCtx(cl.Machines[2].PM)
	if reborn, _ := cl.Vols[1].Resolve(ctx1, "/reborn"); reborn != victim {
		t.Fatalf("/reborn is inode %d, /victim was %d: the number was not recycled", reborn, victim)
	}
	want, got := treeOf(t, cl.Vols[1], ctx1), treeOf(t, cl.Vols[2], ctx2)
	for path, w := range want {
		if g, ok := got[path]; !ok {
			t.Errorf("node 2 lacks %s", path)
		} else if g != w {
			t.Errorf("node 2's %s differs from node 1's (%d vs %d bytes)", path, len(g), len(w))
		}
	}
	for path := range got {
		if _, ok := want[path]; !ok {
			t.Errorf("node 2 still has %s", path)
		}
	}

	// What Recover fetched: every inode node 1's history names (all of it is
	// at or after the epoch node 2 asked from), whole.
	names := make(map[fs.Ino]struct{})
	for _, set := range cl.NICs[1].history {
		maps.Copy(names, set)
	}
	var fetched, ents int
	for ino := range names {
		in, err := cl.Vols[1].ReadInode(ctx1, ino)
		if err == nil && in.Type == fs.TypeDir {
			dir, _ := cl.Vols[1].DirList(ctx1, ino)
			ents += len(dir)
		} else if err == nil {
			fetched += int(in.Size)
		}
	}
	t.Logf("Recover fetched %d inodes: %d file bytes and %d directory entries; the outage wrote %d file bytes",
		len(names), fetched, ents, outage)
}

// treeOf maps every path under / on vol to "dir" or its file's bytes.
func treeOf(t *testing.T, vol *fs.Vol, ctx *fs.Ctx) map[string]string {
	out := make(map[string]string)
	var walk func(dir fs.Ino, prefix string)
	walk = func(dir fs.Ino, prefix string) {
		ents, err := vol.DirList(ctx, dir)
		if err != nil {
			t.Fatalf("list %s/: %v", prefix, err)
		}
		for _, e := range ents {
			path := prefix + "/" + e.Name
			in, err := vol.ReadInode(ctx, e.Ino)
			if err != nil || in.Type != e.Type {
				t.Errorf("%s names inode %d (%v), type %d: %+v", path, e.Ino, err, e.Type, in)
				continue
			}
			if in.Type == fs.TypeDir {
				out[path] = "dir"
				walk(e.Ino, path)
				continue
			}
			data := make([]byte, in.Size)
			if _, err := vol.ReadFile(ctx, e.Ino, 0, data); err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			out[path] = string(data)
		}
	}
	walk(fs.RootIno, "")
	return out
}

// TestEpochPersistence checks that epoch changes reach PM so a restarting
// NICFS knows where to recover from.
func TestEpochPersistence(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.HeartbeatEvery = 100 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	run(t, env, 30*time.Second, func(p *sim.Proc) {
		cl.NICs[2].Crash()
		p.Sleep(time.Second)
	})
	// Node0 persisted the new epoch.
	buf := make([]byte, 8)
	cl.Machines[0].PM.Crash() // drop anything unpersisted
	cl.Machines[0].PM.ReadNoCost(epochPMOff, buf)
	if buf[0] == 0 {
		t.Fatal("epoch 0 persisted; expected bumped epoch to survive")
	}
}

// TestRecoveredMirrorAcksOnlyWhatItHolds crashes replica 1's NICFS while the
// slot's bulk batch sits in its mirror unpersisted, and recovers it at once;
// the fsync's sync frame is then the first to reach the new mirror. The
// sender's window still holds the bulk batch, so the mirror waits for it to
// be resent: every range replica 1 acks is in its mirror log, byte for byte
// the primary's. A mirror that took its start from its first frame acked
// the sync frame's end holding nothing below it.
func TestRecoveredMirrorAcksOnlyWhatItHolds(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.ChunkSize = 4 << 20
	cfg.HeartbeatEvery = 10 * time.Second // the manager never sees the outage
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	recovered := sim.NewEvent(env)
	env.Go("crasher", func(p *sim.Proc) {
		for cl.NICs[1].mirrors[0] == nil {
			p.Sleep(5 * time.Microsecond)
		}
		if head := cl.NICs[1].mirrors[0].log.Head(); head != 0 {
			t.Errorf("the bulk batch persisted through %d before the crash", head)
		}
		cl.NICs[1].Crash()
		if err := cl.NICs[1].Recover(p, 2); err != nil {
			t.Errorf("recover: %v", err)
		}
		recovered.Trigger(nil)
	})
	run(t, env, 20*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/r")
		const wr = 16 << 10
		for off := 0; off < 4<<20; off += wr {
			l.WriteAt(p, fd, uint64(off), bytes.Repeat([]byte{0x5A}, wr))
		}
		p.Wait(recovered)
		l.WriteAt(p, fd, 4<<20, bytes.Repeat([]byte{0xA5}, wr))
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync: %v", err)
		}
	})
	cs := cl.NICs[0].clients[0]
	acked := cs.snd.water[1]
	if acked != cs.log.Head() {
		t.Fatalf("replica 1 acked through %d of the primary's %d", acked, cs.log.Head())
	}
	want := make([]byte, acked)
	cs.log.ReadRawInto(fs.NoCostCtx(cl.Machines[0].PM), 0, want)
	got := make([]byte, acked)
	cl.NICs[1].mirrors[0].log.ReadRawInto(fs.NoCostCtx(cl.Machines[1].PM), 0, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica 1 acked through %d; its mirror log differs from the primary's at byte %d", acked, i)
		}
	}
}

// TestRejoinedReplicaResumesTheChain crashes replica 1's NICFS, writes and
// fsyncs through the outage (the primary releases the range without any
// replica: its next hop is unreachable), and recovers replica 1. Replica 2
// missed that range too; the next frame says the sender released it, so
// replica 2's mirror moves past it and the next fsync returns within
// rejoinDeadline, well under the second a resend would take. A mirror that
// waited for the missed range held the fsync for good.
func TestRejoinedReplicaResumesTheChain(t *testing.T) {
	t.Parallel()
	const rejoinDeadline = 50 * time.Millisecond
	cfg := testConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	run(t, env, 30*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/j")
		write := func(p *sim.Proc, i int) error {
			l.WriteAt(p, fd, uint64(i)<<16, bytes.Repeat([]byte{byte(i + 1)}, 64<<10))
			return l.Fsync(p, fd)
		}
		if err := write(p, 0); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		p.Sleep(time.Second)
		cl.NICs[1].Crash()
		if err := write(p, 1); err != nil {
			t.Fatalf("fsync during the outage: %v", err)
		}
		p.Sleep(time.Second)
		if err := cl.NICs[1].Recover(p, 2); err != nil {
			t.Fatalf("recover: %v", err)
		}
		p.Sleep(time.Second)
		var took time.Duration
		env.Go("rejoin", func(fp *sim.Proc) {
			start := fp.Now()
			if err := write(fp, 2); err != nil {
				t.Errorf("fsync after the rejoin: %v", err)
			}
			took = time.Duration(fp.Now() - start)
		})
		p.Sleep(rejoinDeadline)
		head := cl.NICs[0].clients[0].log.Head()
		if took == 0 {
			t.Fatalf("fsync after the rejoin still waits after %v: replica 2's mirror at %d, the primary's log at %d",
				rejoinDeadline, cl.NICs[2].mirrors[0].log.Head(), head)
		}
		t.Logf("fsync after the rejoin: %v", took)
		for _, mi := range []int{1, 2} {
			if got := cl.NICs[mi].mirrors[0].log.Head(); got != head {
				t.Errorf("node %d mirror head %d, the primary's %d", mi, got, head)
			}
		}
	})
}
