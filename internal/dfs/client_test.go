package dfs

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/lease"
	"linefs/internal/sim"
)

// fakeBackend grants everything and publishes synchronously on Fsync by
// applying the log to the volume directly — the minimal backend that keeps
// the client's contract.
type fakeBackend struct {
	env *sim.Env
	pm  *hw.PM
	vol *fs.Vol
	log *fs.LogArea

	client *Client

	published uint64
	fsyncs    int
	chunks    int
	marks     []uint64
	leaseReqs int

	// What the last Fsync was handed: the offset its range began at (the
	// later of the previous Fsync's head and the last doorbell's), its cuts,
	// and the log offset every entry of the range ends at.
	fsyncFrom uint64
	cuts      []uint64
	entryEnds []uint64
}

func (b *fakeBackend) AcquireLease(p *sim.Proc, ino fs.Ino, mode lease.Mode) (bool, error) {
	b.leaseReqs++
	return true, nil
}

func (b *fakeBackend) OpenCheck(p *sim.Proc, pth string) error { return nil }

func (b *fakeBackend) ChunkReady(p *sim.Proc, head uint64, marks []uint64) {
	b.chunks++
	b.marks = append(append(b.marks, marks...), head)
	b.fsyncFrom = head
}

func (b *fakeBackend) Fsync(p *sim.Proc, head uint64, cuts []uint64) error {
	b.fsyncs++
	ctx := fs.NoCostCtx(b.pm)
	ents, _, err := b.log.DecodeRangeScratch(ctx, nil, b.published, head)
	if err != nil {
		return err
	}
	if err := b.vol.ApplyAll(ctx, ents, nil); err != nil {
		return err
	}
	b.fsyncFrom = max(b.fsyncFrom, b.published)
	b.cuts = append(b.cuts[:0], cuts...)
	b.entryEnds = b.entryEnds[:0]
	at := b.published
	for _, e := range ents {
		at += uint64(e.WireSize())
		if at > b.fsyncFrom {
			b.entryEnds = append(b.entryEnds, at)
		}
	}
	b.published = head
	b.client.OnReclaim(p, head)
	return nil
}

func newFake(t *testing.T, opts ...func(*Config)) (*sim.Env, *fakeBackend, *Client) {
	t.Helper()
	env := sim.NewEnv(1)
	pm := hw.NewPM(env, "pm", hw.DefaultPMConfig(256<<20))
	vol, err := fs.Format(env, pm, 0, 128<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	la := fs.NewLogArea(pm, 128<<20, 16<<20)
	b := &fakeBackend{env: env, pm: pm, vol: vol, log: la}
	cfg := Config{
		ID:  "test",
		Log: la,
		Vol: vol,
		HostCtx: func(p *sim.Proc) *fs.Ctx {
			return &fs.Ctx{P: p, PM: pm}
		},
		InoBase:   16,
		InoMax:    1024,
		ChunkSize: 1 << 20,
		LeaseTTL:  time.Second,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := NewClient(env, b, cfg)
	b.client = c
	return env, b, c
}

func run(t *testing.T, env *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Go("t", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	env.RunUntil(time.Minute)
	if !done {
		t.Fatal("test body did not finish")
	}
}

func TestDirtyOverlayVisibility(t *testing.T) {
	t.Parallel()
	env, _, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		fd, err := c.Create(p, "/x")
		if err != nil {
			t.Fatal(err)
		}
		// Visible through the overlay before any publication.
		typ, size, err := c.Stat(p, "/x")
		if err != nil || typ != fs.TypeFile || size != 0 {
			t.Fatalf("stat = %v %d %v", typ, size, err)
		}
		c.WriteAt(p, fd, 0, []byte("abc"))
		if _, size, _ = c.Stat(p, "/x"); size != 3 {
			t.Fatalf("dirty size = %d", size)
		}
	})
}

func TestOverlayPrunedAfterReclaim(t *testing.T) {
	t.Parallel()
	env, b, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/x")
		c.WriteAt(p, fd, 0, bytes.Repeat([]byte{7}, 10000))
		if err := c.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		// Backend published and reclaimed: overlay must be gone but state
		// visible via the volume.
		if len(c.blockIdx) != 0 {
			t.Fatalf("blockIdx has %d entries after reclaim", len(c.blockIdx))
		}
		if len(c.dirty.inodes) != 0 || len(c.dirty.dirs) != 0 {
			t.Fatal("dirty namespace survives reclaim")
		}
		typ, size, err := c.Stat(p, "/x")
		if err != nil || typ != fs.TypeFile || size != 10000 {
			t.Fatalf("published stat = %v %d %v", typ, size, err)
		}
		got := make([]byte, 10000)
		n, err := c.ReadAt(p, fd, 0, got)
		if err != nil || n != 10000 || got[0] != 7 {
			t.Fatalf("published read n=%d err=%v", n, err)
		}
		_ = b
	})
}

func TestReadMergesLogOverPublished(t *testing.T) {
	t.Parallel()
	env, _, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/m")
		base := bytes.Repeat([]byte{1}, 8192)
		c.WriteAt(p, fd, 0, base)
		c.Fsync(p, fd) // published
		// Unpublished overwrite of a sub-range.
		c.WriteAt(p, fd, 100, []byte{9, 9, 9})
		got := make([]byte, 8192)
		c.ReadAt(p, fd, 0, got)
		if got[99] != 1 || got[100] != 9 || got[102] != 9 || got[103] != 1 {
			t.Fatalf("merge wrong around 100: %v", got[98:105])
		}
	})
}

func TestChunkReadyPacing(t *testing.T) {
	t.Parallel()
	env, b, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/pace")
		buf := make([]byte, 256<<10)
		for off := 0; off < 4<<20; off += len(buf) {
			c.WriteAt(p, fd, uint64(off), buf)
		}
		// 4 MB written with a 1 MB chunk size: ~4 notifications.
		if b.chunks < 3 || b.chunks > 6 {
			t.Fatalf("chunk-ready notifications = %d, want ~4", b.chunks)
		}
	})
}

// TestDoorbellCoalescing checks the NotifyChunks path: chunk boundaries
// accumulate and one doorbell carries several marks, every boundary is
// still announced exactly once and in order, and fsync flushes a deferred
// doorbell so no boundary waits indefinitely.
func TestDoorbellCoalescing(t *testing.T) {
	t.Parallel()
	env, b, c := newFake(t, func(cfg *Config) { cfg.NotifyChunks = 4 })
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/coalesce")
		buf := make([]byte, 1<<20)
		// 8 chunk-sized writes: 8 boundaries, but only 2 doorbells.
		for off := 0; off < 8<<20; off += len(buf) {
			c.WriteAt(p, fd, uint64(off), buf)
		}
		if b.chunks != 2 {
			t.Fatalf("doorbells = %d for 8 chunk boundaries, want 2", b.chunks)
		}
		// Boundaries strictly increase: the backend saw each range once.
		for i := 1; i < len(b.marks); i++ {
			if b.marks[i] <= b.marks[i-1] {
				t.Fatalf("boundary %d out of order: %v", i, b.marks)
			}
		}
		// A partial accumulation is flushed by fsync, not dropped.
		c.WriteAt(p, fd, 8<<20, buf)
		if b.chunks != 2 {
			t.Fatalf("premature doorbell after one boundary (got %d)", b.chunks)
		}
		if err := c.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		if b.chunks != 3 {
			t.Fatalf("fsync did not flush the deferred doorbell (got %d)", b.chunks)
		}
	})
}

// TestFsyncCuts holds the pieces an fsync offers its backend to their
// properties, over seeded write sizes: every cut is an entry boundary strictly
// inside the range the fsync itself covers (after the last doorbell, before
// head), a piece exceeds FsyncPiece only by being one entry, or by being the
// last and carrying a tail of under a quarter piece — which is never left on
// its own — and no piece was cut while its next entry still fitted.
func TestFsyncCuts(t *testing.T) {
	t.Parallel()
	env, b, c := newFake(t)
	rng := rand.New(rand.NewSource(22))
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/cuts")
		check := func(name string) {
			t.Helper()
			if err := c.Fsync(p, fd); err != nil {
				t.Fatal(err)
			}
			from, fromAt := b.fsyncFrom, -1 // fromAt indexes the entry that ends at from
			for i, end := range append(b.cuts, b.published) {
				last := i == len(b.cuts)
				at, ok := slices.BinarySearch(b.entryEnds, end)
				if !ok || end <= from || (!last && end >= b.published) {
					t.Fatalf("%s: cut %d is not an entry boundary inside (%d, %d)", name, end, from, b.published)
				}
				entries := at - fromAt
				switch size := end - from; {
				case last && len(b.cuts) > 0 && size < FsyncPiece/4:
					t.Errorf("%s: the last piece is %d bytes, under a quarter piece, and was not merged", name, size)
				case size > FsyncPiece && entries > 1 && !(last && size-FsyncPiece < FsyncPiece/4):
					t.Errorf("%s: piece [%d,%d) is %d bytes in %d entries, over FsyncPiece", name, from, end, size, entries)
				case !last && b.entryEnds[at+1]-from <= FsyncPiece:
					t.Errorf("%s: piece [%d,%d) was cut with room for its next entry", name, from, end)
				}
				from, fromAt = end, at
			}
		}
		writes := func(total, lo, hi int) {
			for off := 0; off < total; {
				n := lo + rng.Intn(hi-lo+1)
				c.WriteAt(p, fd, uint64(off), make([]byte, n))
				off += n
			}
		}

		writes(4<<10, 4<<10, 4<<10)
		check("one 4 KiB write")
		if len(b.cuts) != 0 {
			t.Errorf("a 4 KiB write+fsync carries cuts %v", b.cuts)
		}
		writes(300<<10, 4<<10, 4<<10)
		check("300 KiB")
		if len(b.cuts) != 0 {
			t.Errorf("300 KiB of 4 KiB writes: cuts %v, want the 44 KiB tail merged", b.cuts)
		}
		writes(330<<10, 4<<10, 4<<10)
		check("330 KiB")
		if len(b.cuts) != 1 {
			t.Errorf("330 KiB of 4 KiB writes: cuts %v, want one", b.cuts)
		}
		for i := 0; i < 20; i++ {
			writes(64<<10+rng.Intn(900<<10), 1, 48<<10)
			check("seeded sizes")
		}
		writes(700<<10, 300<<10, 400<<10)
		check("entries larger than a piece")

		// A doorbell (1 MiB chunks here) takes everything before it: the cuts
		// recorded on the way are forgotten, the next piece starts at its head.
		doorbells := b.chunks
		writes(1<<20+600<<10, 4<<10, 16<<10)
		if b.chunks != doorbells+1 {
			t.Fatalf("%d doorbells for 1.6 MiB, want 1", b.chunks-doorbells)
		}
		check("after a doorbell")
		if rung := b.marks[len(b.marks)-1]; len(b.cuts) == 0 || b.cuts[0] <= rung {
			t.Errorf("cuts %v after the doorbell at %d: want some, all beyond it", b.cuts, rung)
		}
	})
}

func TestLeaseCaching(t *testing.T) {
	t.Parallel()
	env, b, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/l")
		before := b.leaseReqs
		for i := 0; i < 100; i++ {
			c.WriteAt(p, fd, uint64(i*100), []byte("data"))
		}
		if b.leaseReqs != before {
			t.Fatalf("%d extra lease RPCs despite cache", b.leaseReqs-before)
		}
		// Revocation clears the cache: the next write re-acquires.
		c.OnRevoke(16)
		c.WriteAt(p, fd, 0, []byte("again"))
		if b.leaseReqs != before+1 {
			t.Fatalf("lease not re-acquired after revoke (reqs=%d)", b.leaseReqs-before)
		}
	})
}

func TestCleanPath(t *testing.T) {
	t.Parallel()
	cases := map[string][]string{
		"/":        nil,
		"":         nil,
		"/a/b/c":   {"a", "b", "c"},
		"a//b":     {"a", "b"},
		"/a/./b/":  {"a", "b"},
		"///x":     {"x"},
		"/dir/f.x": {"dir", "f.x"},
	}
	for in, want := range cases {
		got := cleanPath(in)
		if len(got) != len(want) {
			t.Fatalf("cleanPath(%q) = %v, want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cleanPath(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestSplitDir(t *testing.T) {
	t.Parallel()
	cases := [][3]string{
		{"/a/b", "/a/", "b"},
		{"/x", "/", "x"},
		{"name", "/", "name"},
	}
	for _, tc := range cases {
		dir, name := splitDir(tc[0])
		if dir != tc[1] || name != tc[2] {
			t.Fatalf("splitDir(%q) = %q,%q want %q,%q", tc[0], dir, name, tc[1], tc[2])
		}
	}
}

func TestWriteToReadOnlyFD(t *testing.T) {
	t.Parallel()
	env, _, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		fd, _ := c.Create(p, "/ro")
		c.WriteAt(p, fd, 0, []byte("x"))
		c.Fsync(p, fd)
		rfd, err := c.Open(p, "/ro", false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteAt(p, rfd, 0, []byte("y")); err == nil {
			t.Fatal("write through read-only descriptor succeeded")
		}
	})
}

func TestBadFDErrors(t *testing.T) {
	t.Parallel()
	env, _, c := newFake(t)
	run(t, env, func(p *sim.Proc) {
		if _, err := c.WriteAt(p, 999, 0, []byte("x")); err != ErrBadFD {
			t.Fatalf("write err = %v", err)
		}
		if _, err := c.ReadAt(p, 999, 0, make([]byte, 4)); err != ErrBadFD {
			t.Fatalf("read err = %v", err)
		}
		if err := c.Close(p, 999); err != ErrBadFD {
			t.Fatalf("close err = %v", err)
		}
		if err := c.Fsync(p, 999); err != ErrBadFD {
			t.Fatalf("fsync err = %v", err)
		}
	})
}
