package assise

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/sim"
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
// the embedded layout, its eleven promoted names, then SharedFS's own three.
// A new field is a new option and a deliberate diff against this list.
func TestConfigFieldsPinned(t *testing.T) {
	want := []string{
		"Layout",
		"Spec", "Nodes", "Replicas", "MaxClients", "VolSize", "LogSize", "ChunkSize",
		"DFSPrio", "HeartbeatEvery", "InodesPerVol", "InoRangePerClient",
		"Mode", "HyperloopCredits", "HyperloopPost",
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
		in, _ := cl.Vols[0].Stat(ctx, ino)
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
		// One-sided writes + hl-note must have produced identical replica
		// public state.
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

func TestHyperloopCreditsRefill(t *testing.T) {
	t.Parallel()
	cfg := testConfig(Hyperloop)
	cfg.HyperloopCredits = 3
	cfg.HyperloopPost = time.Millisecond
	env, cl := newTestCluster(t, cfg)
	run(t, env, 300*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/c")
		buf := make([]byte, 16<<10)
		// Far more syncs than credits: forces repeated re-posting.
		for i := 0; i < 20; i++ {
			l.WriteAt(p, fd, uint64(i*len(buf)), buf)
			if err := l.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
		}
	})
	if cl.Shared[0].hlCredits < 0 {
		t.Fatal("credit accounting went negative")
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
