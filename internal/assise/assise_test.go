package assise

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
	"linefs/internal/stats"
)

func testConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Spec.PMSize = 256 << 20
	cfg.VolSize = 128 << 20
	cfg.LogSize = 8 << 20
	cfg.ChunkSize = 1 << 20
	cfg.MaxClients = 4
	cfg.InodesPerVol = 8192
	cfg.Mode = mode
	return cfg
}

// TestConfigFieldsPinned is core's test of the same name for the baseline:
// the embedded layout, its eleven promoted names, then SharedFS's own one.
// A new field is a new option and a deliberate diff against this list.
func TestConfigFieldsPinned(t *testing.T) {
	want := []string{
		"Layout",
		"Spec", "Nodes", "Replicas", "MaxClients", "VolSize", "LogSize", "ChunkSize",
		"DFSPrio", "HeartbeatEvery", "InodesPerVol", "InoRangePerClient",
		"Mode",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		got = append(got, f.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("assise.Config fields:\n got %v\nwant %v", got, want)
	}
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

func testWriteFsyncRead(t *testing.T, mode Mode) {
	env, cl := newTestCluster(t, testConfig(mode))
	payload := bytes.Repeat([]byte("assise"), 4000)
	run(t, env, 30*time.Second, func(p *sim.Proc) {
		l, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := l.Create(p, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.WriteAt(p, fd, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		n, err := l.ReadAt(p, fd, 0, got)
		if err != nil || n != len(payload) || !bytes.Equal(got, payload) {
			t.Fatalf("read back: n=%d err=%v", n, err)
		}
		// Replication reached both replicas' PM log mirrors.
		for _, mi := range []int{1, 2} {
			ms := cl.Shared[mi].mirrors[0]
			if ms == nil {
				t.Fatalf("node %d: no mirror", mi)
			}
			c := fs.NoCostCtx(cl.Machines[mi].PM)
			ents, _, err := ms.log.DecodeRangeScratch(c, nil, 0, ms.log.Head())
			if err != nil {
				t.Fatalf("node %d decode: %v", mi, err)
			}
			var data []byte
			for _, e := range ents {
				if e.Type == fs.OpWrite {
					data = append(data, e.Data...)
				}
			}
			if !bytes.Equal(data, payload) {
				t.Fatalf("node %d mirror payload %d bytes, want %d", mi, len(data), len(payload))
			}
		}
	})
}

func TestPessimisticWriteFsyncRead(t *testing.T) { testWriteFsyncRead(t, Pessimistic) }
func TestBgReplWriteFsyncRead(t *testing.T)      { testWriteFsyncRead(t, BgRepl) }
func TestHyperloopWriteFsyncRead(t *testing.T)   { testWriteFsyncRead(t, Hyperloop) }

func TestDigestionPublishesAndReclaims(t *testing.T) {
	t.Parallel()
	cfg := testConfig(Pessimistic)
	env, cl := newTestCluster(t, cfg)
	total := 4 * cfg.ChunkSize
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/big")
		buf := bytes.Repeat([]byte{0xCD}, 64<<10)
		for off := 0; off < total; off += len(buf) {
			if _, err := l.WriteAt(p, fd, uint64(off), buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(3 * time.Second)
		if used := l.Log().Used(); used != 0 {
			t.Fatalf("log not reclaimed after digestion: %d bytes", used)
		}
		ctx := fs.NoCostCtx(cl.Machines[0].PM)
		ino, err := cl.Vols[0].Resolve(ctx, "/big")
		if err != nil {
			t.Fatal(err)
		}
		in, _ := cl.Vols[0].ReadInode(ctx, ino)
		if in.Size != uint64(total) {
			t.Fatalf("published size = %d, want %d", in.Size, total)
		}
	})
}

func TestReplicaDigestion(t *testing.T) {
	t.Parallel()
	cfg := testConfig(BgRepl)
	env, cl := newTestCluster(t, cfg)
	payload := bytes.Repeat([]byte{0x42}, 2*cfg.ChunkSize)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/r")
		l.WriteAt(p, fd, 0, payload)
		l.Fsync(p, fd)
		p.Sleep(3 * time.Second)
		for _, mi := range []int{1, 2} {
			ctx := fs.NoCostCtx(cl.Machines[mi].PM)
			ino, err := cl.Vols[mi].Resolve(ctx, "/r")
			if err != nil {
				t.Fatalf("node %d resolve: %v", mi, err)
			}
			got := make([]byte, len(payload))
			n, _ := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
			if n != len(payload) || !bytes.Equal(got, payload) {
				t.Fatalf("node %d replica publish mismatch (n=%d)", mi, n)
			}
		}
	})
}

func TestHyperloopReplicaContent(t *testing.T) {
	t.Parallel()
	cfg := testConfig(Hyperloop)
	env, cl := newTestCluster(t, cfg)
	payload := bytes.Repeat([]byte{0x77}, 2*cfg.ChunkSize)
	run(t, env, 120*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/hl")
		l.WriteAt(p, fd, 0, payload)
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(3 * time.Second)
		// The NIC-driven chain placed the frames and the replicas' hosts
		// digested them: every replica's public area holds the payload.
		for _, mi := range []int{1, 2} {
			ctx := fs.NoCostCtx(cl.Machines[mi].PM)
			ino, err := cl.Vols[mi].Resolve(ctx, "/hl")
			if err != nil {
				t.Fatalf("node %d resolve: %v", mi, err)
			}
			got := make([]byte, len(payload))
			n, _ := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
			if n != len(payload) || !bytes.Equal(got, payload) {
				t.Fatalf("node %d hyperloop replica mismatch", mi)
			}
		}
	})
}

// TestHyperloopCreditsRefill starts the primary's WQE window three credits
// from empty and fsyncs twenty times, one credit each: the fourth fsync finds
// the window dry and pays the host's re-post, and the fresh window serves the
// remaining seventeen without another.
func TestHyperloopCreditsRefill(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig(Hyperloop))
	cl.Shared[0].hlCredits = 3
	var reposts []int
	run(t, env, 300*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/c")
		buf := make([]byte, 16<<10)
		for i := 0; i < 20; i++ {
			l.WriteAt(p, fd, uint64(i*len(buf)), buf)
			start := p.Now()
			if err := l.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
			if time.Duration(p.Now()-start) >= hyperloopPost {
				reposts = append(reposts, i)
			}
		}
	})
	if got := cl.Shared[0].hlCredits; len(reposts) != 1 || reposts[0] != 3 || got != hyperloopCredits-17 {
		t.Errorf("re-posted at fsyncs %v with %d credits left; want once, at fsync 3, with %d left",
			reposts, got, hyperloopCredits-17)
	}
}

func TestNamespaceOpsAssise(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig(Pessimistic))
	run(t, env, 30*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		if err := l.Mkdir(p, "/m"); err != nil {
			t.Fatal(err)
		}
		fd, err := l.Create(p, "/m/x")
		if err != nil {
			t.Fatal(err)
		}
		l.WriteAt(p, fd, 0, []byte("data"))
		if err := l.Rename(p, "/m/x", "/m/y"); err != nil {
			t.Fatal(err)
		}
		l.Fsync(p, fd)
		p.Sleep(2 * time.Second)
		ctx := fs.NoCostCtx(cl.Machines[0].PM)
		if _, err := cl.Vols[0].Resolve(ctx, "/m/y"); err != nil {
			t.Fatalf("digested rename missing: %v", err)
		}
	})
}

func TestTwoClientsSeparateFiles(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig(BgRepl))
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		b, _ := cl.Attach(p, 0)
		fda, _ := a.Create(p, "/a")
		fdb, _ := b.Create(p, "/b")
		a.WriteAt(p, fda, 0, bytes.Repeat([]byte{1}, 100000))
		b.WriteAt(p, fdb, 0, bytes.Repeat([]byte{2}, 100000))
		if err := a.Fsync(p, fda); err != nil {
			t.Fatal(err)
		}
		if err := b.Fsync(p, fdb); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMirrorRingBoundsIngest is ROADMAP item 10: on busy replicas, a write
// stream with no fsync runs many times around a small mirror ring. A
// replica's ring takes no frame that would overwrite what it has not
// digested, so every replica's public area ends equal to the primary's —
// under BgRepl's host-driven chain and Hyperloop's NIC-driven one alike.
func TestMirrorRingBoundsIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each ring around many times on hogged cores: about 95 s a case under the race detector")
	}
	t.Parallel()
	for _, mode := range []Mode{BgRepl, Hyperloop} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(mode)
			cfg.LogSize = 1 << 20
			cfg.ChunkSize = 128 << 10
			cfg.DFSPrio = 1 // the busy-replica setting: the daemon above the co-tenant
			env, cl := newTestCluster(t, cfg)
			for _, m := range cl.Machines[1:] {
				for range m.HostCPU.NumCores() {
					env.Go(m.Name+"/hog", func(p *sim.Proc) {
						for {
							m.HostCPU.Compute(p, 10*time.Millisecond, 0, "app")
						}
					})
				}
			}
			const total = 8 << 20
			run(t, env, 10*time.Second, func(p *sim.Proc) {
				l, _ := cl.Attach(p, 0)
				writeStream(t, p, l, "/f", total, total)
				p.Sleep(time.Second)
				sameVolumes(t, cl, "/f", total)
			})
		})
	}
}

// writeStream writes total bytes of a position-dependent pattern to path in
// 16 KiB writes, fsyncing every fsyncEvery bytes and at the end.
func writeStream(t *testing.T, p *sim.Proc, a *Attachment, path string, total, fsyncEvery int) {
	t.Helper()
	fd, err := a.Create(p, path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16<<10)
	for off := 0; off < total; off += len(buf) {
		for i := range buf {
			buf[i] = byte(off>>14 + i)
		}
		if _, err := a.WriteAt(p, fd, uint64(off), buf); err != nil {
			t.Fatal(err)
		}
		if (off+len(buf))%fsyncEvery == 0 || off+len(buf) == total {
			if err := a.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameVolumes checks that every replica's public area holds what the
// primary's does at path's first total bytes.
func sameVolumes(t *testing.T, cl *Cluster, path string, total int) {
	t.Helper()
	var want []byte
	for mi := range cl.Machines {
		ctx := fs.NoCostCtx(cl.Machines[mi].PM)
		got := make([]byte, total)
		ino, err := cl.Vols[mi].Resolve(ctx, path)
		if err == nil {
			_, err = cl.Vols[mi].ReadFile(ctx, ino, 0, got)
		}
		switch {
		case err != nil:
			t.Errorf("node %d: %v", mi, err)
		case mi == 0:
			want = got
		case !bytes.Equal(got, want):
			ms := cl.Shared[mi].mirrors[0]
			t.Errorf("node %d: public area differs from the primary's; mirror digested %d of %d",
				mi, ms.digested, ms.log.Head())
		}
	}
}

// TestFramesReturnToThePool streams 16 MiB through a Pessimistic slot with
// fsyncs while a watcher samples the slot's frames: once the stream is
// replicated no frame is still lent, and the free list never held more
// buffers than the slot once had frames in flight.
func TestFramesReturnToThePool(t *testing.T) {
	env, cl := newTestCluster(t, testConfig(Pessimistic))
	var ss *slotState
	done := false
	peakLent, peakFree := 0, 0
	env.Go("watch", func(p *sim.Proc) {
		for !done {
			if ss != nil {
				peakLent = max(peakLent, len(ss.lent))
				peakFree = max(peakFree, len(ss.frames))
			}
			p.Sleep(time.Microsecond)
		}
	})
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		a, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		ss = a.backend.ss
		writeStream(t, p, a, "/f", 16<<20, 1<<20)
		done = true
	})
	t.Logf("peak lent %d, peak free %d, now free %d", peakLent, peakFree, len(ss.frames))
	if len(ss.lent) != 0 || peakLent == 0 {
		t.Errorf("%d frames still lent after the stream (peak %d), want 0", len(ss.lent), peakLent)
	}
	if peakFree > peakLent || len(ss.frames) > peakLent {
		t.Errorf("free list held %d buffers (now %d) with at most %d frames in flight", peakFree, len(ss.frames), peakLent)
	}
}

// TestLateFrameCopyAfterReuse duplicates every frame from the primary to
// the first replica and delays the original by up to 2 ms, so that a
// frame's buffer is back in the pool, and carries a later range, before its
// late copy lands. The copy lies below the replica's head: it is re-acked,
// relayed, and never persisted, and every replica's volume ends equal to the
// primary's.
func TestLateFrameCopyAfterReuse(t *testing.T) {
	cfg := testConfig(BgRepl)
	cfg.ChunkSize = 64 << 10
	env, cl := newTestCluster(t, cfg)
	var rs stats.Robustness
	cl.Fabric.Faults = rdma.NewFaultPlane(env, &rs)
	cl.Fabric.Faults.SetRule(cl.Machines[0].Name, cl.Machines[1].Name,
		rdma.FaultRule{Dup: 1, Delay: 1, DelayMax: 2 * time.Millisecond})
	const total = 4 << 20
	var ss *slotState
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		a, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		ss = a.backend.ss
		writeStream(t, p, a, "/f", total, 1<<20)
		p.Sleep(time.Second) // every late copy lands; replicas digest
		sameVolumes(t, cl, "/f", total)
	})
	// Every frame went twice, and a few buffers carried them all: each was
	// reused while late copies of what it held were still in flight.
	frames, bufs := int(rs.FramesDelayed), len(ss.frames)+len(ss.lent)
	t.Logf("%d frames, each duplicated and delayed, in %d buffers", frames, bufs)
	if frames < 32 || rs.FramesDuplicated != rs.FramesDelayed {
		t.Errorf("delayed %d, duplicated %d frames; want at least 32, every one both", rs.FramesDelayed, rs.FramesDuplicated)
	}
	if bufs*4 > frames {
		t.Errorf("%d frame buffers for %d frames: too few reuses to test", bufs, frames)
	}
}
