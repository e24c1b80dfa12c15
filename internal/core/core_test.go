package core

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/sim"
)

// testConfig returns a small, fast cluster configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Spec.PMSize = 256 << 20
	cfg.VolSize = 128 << 20
	cfg.LogSize = 8 << 20
	cfg.ChunkSize = 1 << 20
	cfg.MaxClients = 4
	cfg.InodesPerVol = 8192
	return cfg
}

func newTestCluster(t *testing.T, cfg Config) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv(1)
	cl, err := NewCluster(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	return env, cl
}

// run starts fn as the "application" process and advances the simulation.
func run(t *testing.T, env *sim.Env, d time.Duration, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Go("app", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	env.RunUntil(d)
	if !done {
		t.Fatal("application process did not finish in simulated time")
	}
}

func TestWriteFsyncReadBack(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := l.Create(p, "/a.txt")
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("linefs!"), 1000)
		if _, err := l.WriteAt(p, fd, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		n, err := l.ReadAt(p, fd, 0, got)
		if err != nil || n != len(data) {
			t.Fatalf("read = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read-back mismatch")
		}
	})
}

func TestFsyncReplicatesToAllReplicas(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	payload := bytes.Repeat([]byte{0xAB}, 20000)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/r.txt")
		l.WriteAt(p, fd, 0, payload)
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		// After fsync both replica PM logs hold the same entries, decodable
		// and persisted.
		for _, mi := range []int{1, 2} {
			ms := cl.NICs[mi].mirrors[0]
			if ms == nil {
				t.Fatalf("node %d has no mirror for slot 0", mi)
			}
			c := fs.NoCostCtx(cl.Machines[mi].PM)
			ents, _, err := ms.log.DecodeRangeScratch(c, nil, 0, ms.log.Head())
			if err != nil {
				t.Fatalf("node %d mirror decode: %v", mi, err)
			}
			var wrote []byte
			for _, e := range ents {
				if e.Type == fs.OpWrite {
					wrote = append(wrote, e.Data...)
				}
			}
			if !bytes.Equal(wrote, payload) {
				t.Fatalf("node %d mirror has %d payload bytes, want %d", mi, len(wrote), len(payload))
			}
		}
	})
}

func TestFsyncDurableAcrossPrimaryHostCrash(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	payload := bytes.Repeat([]byte{7}, 8192)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/durable")
		l.WriteAt(p, fd, 0, payload)
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
	})
	// Crash the primary host: everything fsynced must still decode from
	// the primary's own persisted log.
	cl.Machines[0].PM.Crash()
	c := fs.NoCostCtx(cl.Machines[0].PM)
	la, err := fs.OpenLogArea(c, cl.LogBase(0), cl.Cfg.LogSize)
	if err != nil {
		t.Fatal(err)
	}
	ents, _, err := la.DecodeRangeScratch(c, nil, la.Tail(), la.Head())
	if err != nil {
		t.Fatalf("post-crash decode: %v", err)
	}
	found := false
	for _, e := range ents {
		if e.Type == fs.OpWrite && bytes.Equal(e.Data, payload) {
			found = true
		}
	}
	// The log may already be reclaimed if publication finished; then the
	// data must be in the public area instead.
	if !found && la.Head() != la.Tail() {
		t.Fatal("fsynced write neither in log nor reclaimed")
	}
}

func TestBackgroundPublicationAndReclaim(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	env, cl := newTestCluster(t, cfg)
	total := 4 * cfg.ChunkSize
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/big")
		buf := make([]byte, 64<<10)
		for i := range buf {
			buf[i] = byte(i)
		}
		for off := 0; off < total; off += len(buf) {
			if _, err := l.WriteAt(p, fd, uint64(off), buf); err != nil {
				t.Fatal(err)
			}
		}
		l.Fsync(p, fd)
		// Give background publication time to drain and reclaim.
		p.Sleep(2 * time.Second)
		if l.Log().Used() != 0 {
			t.Fatalf("log not reclaimed: %d bytes used", l.Log().Used())
		}
		// Reads now come from the public area and must match.
		got := make([]byte, len(buf))
		for off := 0; off < total; off += len(buf) {
			n, err := l.ReadAt(p, fd, uint64(off), got)
			if err != nil || n != len(buf) {
				t.Fatalf("read at %d: %d, %v", off, n, err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("published data mismatch at %d", off)
			}
		}
		// The public inode exists with the right size on the primary.
		ctx := fs.NoCostCtx(cl.Machines[0].PM)
		ino, err := cl.Vols[0].Resolve(ctx, "/big")
		if err != nil {
			t.Fatal(err)
		}
		in, _ := cl.Vols[0].Stat(ctx, ino)
		if in.Size != uint64(total) {
			t.Fatalf("published size = %d, want %d", in.Size, total)
		}
	})
}

func TestReplicasPublishToo(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	env, cl := newTestCluster(t, cfg)
	payload := bytes.Repeat([]byte{0x5A}, 2*cfg.ChunkSize)
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/x")
		l.WriteAt(p, fd, 0, payload)
		l.Fsync(p, fd)
		p.Sleep(2 * time.Second)
		for _, mi := range []int{1, 2} {
			ctx := fs.NoCostCtx(cl.Machines[mi].PM)
			ino, err := cl.Vols[mi].Resolve(ctx, "/x")
			if err != nil {
				t.Fatalf("node %d: %v", mi, err)
			}
			got := make([]byte, len(payload))
			n, err := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
			if err != nil || n != len(payload) {
				t.Fatalf("node %d read: %d, %v", mi, n, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("node %d replica content mismatch", mi)
			}
		}
	})
}

func TestNamespaceOpsVisibleLocally(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		if err := l.Mkdir(p, "/dir"); err != nil {
			t.Fatal(err)
		}
		fd, err := l.Create(p, "/dir/f")
		if err != nil {
			t.Fatal(err)
		}
		l.WriteAt(p, fd, 0, []byte("hi"))
		if _, _, err := l.Stat(p, "/dir/f"); err != nil {
			t.Fatal(err)
		}
		if err := l.Rename(p, "/dir/f", "/dir/g"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Stat(p, "/dir/f"); err == nil {
			t.Fatal("old name still visible")
		}
		typ, size, err := l.Stat(p, "/dir/g")
		if err != nil || typ != fs.TypeFile || size != 2 {
			t.Fatalf("stat g: %v %d %v", typ, size, err)
		}
		ents, err := l.ReadDir(p, "/dir")
		if err != nil || len(ents) != 1 || ents[0].Name != "g" {
			t.Fatalf("readdir: %v, %v", ents, err)
		}
		if err := l.Unlink(p, "/dir/g"); err != nil {
			t.Fatal(err)
		}
		if err := l.Rmdir(p, "/dir"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Stat(p, "/dir"); err == nil {
			t.Fatal("removed dir still visible")
		}
	})
}

func TestNamespacePublishes(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	run(t, env, 30*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		l.Mkdir(p, "/d")
		fd, _ := l.Create(p, "/d/file")
		l.WriteAt(p, fd, 0, []byte("published"))
		l.Fsync(p, fd)
		p.Sleep(2 * time.Second)
		// All three nodes resolve the path in their public areas.
		for mi := 0; mi < 3; mi++ {
			ctx := fs.NoCostCtx(cl.Machines[mi].PM)
			if _, err := cl.Vols[mi].Resolve(ctx, "/d/file"); err != nil {
				t.Fatalf("node %d resolve: %v", mi, err)
			}
		}
	})
}

func TestTwoClientsLeaseConflict(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	run(t, env, 30*time.Second, func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		b, _ := cl.Attach(p, 0)
		fd, err := a.Create(p, "/shared")
		if err != nil {
			t.Fatal(err)
		}
		a.WriteAt(p, fd, 0, []byte("from-a"))
		a.Fsync(p, fd)
		p.Sleep(2 * time.Second) // publish so b can see it

		// b opens the now-published file for writing: requires revoking
		// a's lease.
		fdb, err := b.Open(p, "/shared", true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteAt(p, fdb, 0, []byte("from-b")); err != nil {
			t.Fatal(err)
		}
		if err := b.Fsync(p, fdb); err != nil {
			t.Fatal(err)
		}
		p.Sleep(2 * time.Second)
		got := make([]byte, 6)
		n, err := b.ReadAt(p, fdb, 0, got)
		if err != nil || n != 6 || string(got) != "from-b" {
			t.Fatalf("read: %q, %v", got[:n], err)
		}
	})
}

func TestSequentialModeWorks(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Parallel = false
	env, cl := newTestCluster(t, cfg)
	payload := bytes.Repeat([]byte{9}, 2*cfg.ChunkSize)
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/seq")
		l.WriteAt(p, fd, 0, payload)
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(3 * time.Second)
		ctx := fs.NoCostCtx(cl.Machines[1].PM)
		if _, err := cl.Vols[1].Resolve(ctx, "/seq"); err != nil {
			t.Fatalf("replica resolve in sequential mode: %v", err)
		}
	})
}

func TestCompressionModePreservesData(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Compress = true
	env, cl := newTestCluster(t, cfg)
	// Highly compressible payload.
	payload := bytes.Repeat([]byte("0000000000abc"), 200000)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/comp")
		l.WriteAt(p, fd, 0, payload)
		l.Fsync(p, fd)
		p.Sleep(3 * time.Second)
		for _, mi := range []int{1, 2} {
			ctx := fs.NoCostCtx(cl.Machines[mi].PM)
			ino, err := cl.Vols[mi].Resolve(ctx, "/comp")
			if err != nil {
				t.Fatalf("node %d: %v", mi, err)
			}
			got := make([]byte, len(payload))
			n, _ := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
			if n != len(payload) || !bytes.Equal(got, payload) {
				t.Fatalf("node %d decompressed replica mismatch (n=%d)", mi, n)
			}
		}
		// Compression must actually have saved wire bytes.
		n0 := cl.NICs[0]
		if n0.RepWireBytes >= n0.RepBytes {
			t.Fatalf("no wire savings: wire=%d raw=%d", n0.RepWireBytes, n0.RepBytes)
		}
		// And the chunk's sub-blocks must have been coded side by side.
		if peak := n0.CompressPeakWorkers(); peak < 2 {
			t.Fatalf("compression never left one core (peak %d threads)", peak)
		}
	})
}

func TestHostCrashIsolatedModeKeepsChainAlive(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	payload := bytes.Repeat([]byte{3}, 256<<10)
	var after []byte
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/avail")
		l.WriteAt(p, fd, 0, payload)
		l.Fsync(p, fd)

		// Crash replica 1's host. Its NICFS must detect the dead kernel
		// worker and keep replicating via PCIe.
		cl.CrashHost(1)
		p.Sleep(time.Second)
		if !cl.NICs[1].Isolated {
			t.Fatal("NICFS on crashed host not isolated")
		}
		after = bytes.Repeat([]byte{4}, 256<<10)
		if _, err := l.WriteAt(p, fd, uint64(len(payload)), after); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatalf("fsync during replica host failure: %v", err)
		}
		// Recover the host; the detector flips back.
		cl.RecoverHost(1)
		p.Sleep(time.Second)
		if cl.NICs[1].Isolated {
			t.Fatal("NICFS still isolated after host recovery")
		}
		if _, err := l.WriteAt(p, fd, uint64(len(payload)+len(after)), []byte("post")); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
	})
	// The crashed-and-recovered replica still mirrors everything.
	ms := cl.NICs[1].mirrors[0]
	c := fs.NoCostCtx(cl.Machines[1].PM)
	ents, _, err := ms.log.DecodeRangeScratch(c, nil, ms.log.Tail(), ms.log.Head())
	if err != nil {
		t.Fatalf("mirror decode after failure window: %v", err)
	}
	_ = ents
}

func TestLogBackpressure(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.LogSize = 2 << 20
	cfg.ChunkSize = 256 << 10
	env, cl := newTestCluster(t, cfg)
	run(t, env, 300*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/pressure")
		buf := make([]byte, 128<<10)
		// Write 4x the log size: requires reclaim to make progress.
		for off := 0; off < 8<<20; off += len(buf) {
			if _, err := l.WriteAt(p, fd, uint64(off), buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStageTimesRecorded(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	env, cl := newTestCluster(t, cfg)
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/stage")
		l.WriteAt(p, fd, 0, make([]byte, 2*cfg.ChunkSize))
		l.Fsync(p, fd)
		p.Sleep(2 * time.Second)
	})
	st := cl.NICs[0].StageTimes
	for _, s := range []string{"fetch", "validate", "publish", "transfer"} {
		if st[s].N == 0 {
			t.Errorf("stage %q never timed", s)
		}
	}
	if st["fetch"].Mean() <= 0 {
		t.Error("fetch mean not positive")
	}
}
