package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

func writeRead(t *testing.T, v *Vol, c *Ctx, ino Ino, off uint64, data []byte) {
	t.Helper()
	if err := v.PublishWrite(c, ino, off, data, nil); err != nil {
		t.Fatalf("publish write: %v", err)
	}
	got := make([]byte, len(data))
	n, err := v.ReadFile(c, ino, off, got)
	if err != nil || n != len(data) {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data mismatch at off %d len %d", off, len(data))
	}
}

func TestPublishWriteAndRead(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	writeRead(t, v, c, 9, 0, []byte("hello world"))
	in, _ := v.ReadInode(c, 9)
	if in.Size != 11 {
		t.Fatalf("size = %d", in.Size)
	}
}

func TestPublishWriteUnaligned(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	// Cross a block boundary with an unaligned offset.
	data := bytes.Repeat([]byte("xyz"), 3000)
	writeRead(t, v, c, 9, BlockSize-100, data)
}

func TestPublishWriteOverwriteInPlace(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	writeRead(t, v, c, 9, 0, bytes.Repeat([]byte{1}, 3*BlockSize))
	free := v.FreeCount()
	writeRead(t, v, c, 9, BlockSize, bytes.Repeat([]byte{2}, BlockSize))
	if v.FreeCount() != free {
		t.Fatal("overwrite allocated new blocks")
	}
	buf := make([]byte, 3*BlockSize)
	v.ReadFile(c, 9, 0, buf)
	if buf[0] != 1 || buf[BlockSize] != 2 || buf[2*BlockSize] != 1 {
		t.Fatalf("overwrite result: %d %d %d", buf[0], buf[BlockSize], buf[2*BlockSize])
	}
}

func TestPublishWriteSparseHoleReadsZero(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	writeRead(t, v, c, 9, 10*BlockSize, []byte("tail"))
	buf := make([]byte, 100)
	n, err := v.ReadFile(c, 9, 0, buf)
	if err != nil || n != 100 {
		t.Fatalf("hole read = %d, %v", n, err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole not zero")
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	writeRead(t, v, c, 9, 0, []byte("short"))
	buf := make([]byte, 100)
	n, _ := v.ReadFile(c, 9, 0, buf)
	if n != 5 {
		t.Fatalf("read past EOF = %d, want 5", n)
	}
	n, _ = v.ReadFile(c, 9, 1000, buf)
	if n != 0 {
		t.Fatalf("read at EOF = %d, want 0", n)
	}
}

func TestTruncateToZeroFreesBlocks(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	free0 := v.FreeCount()
	writeRead(t, v, c, 9, 0, bytes.Repeat([]byte{7}, 64*BlockSize))
	if err := v.Truncate(c, 9, 0); err != nil {
		t.Fatal(err)
	}
	if v.FreeCount() != free0 {
		t.Fatalf("free = %d, want %d after truncate", v.FreeCount(), free0)
	}
	in, _ := v.ReadInode(c, 9)
	if in.Size != 0 || in.ExtHead != 0 {
		t.Fatalf("inode after truncate: %+v", in)
	}
}

func TestRandomWritesMatchModel(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	rng := rand.New(rand.NewSource(99))
	const fileSize = 64 * BlockSize
	model := make([]byte, fileSize)
	for i := 0; i < 100; i++ {
		off := rng.Intn(fileSize - 8192)
		n := 1 + rng.Intn(8192)
		data := make([]byte, n)
		rng.Read(data)
		copy(model[off:], data)
		if err := v.PublishWrite(c, 9, uint64(off), data, nil); err != nil {
			t.Fatal(err)
		}
	}
	in, _ := v.ReadInode(c, 9)
	got := make([]byte, in.Size)
	v.ReadFile(c, 9, 0, got)
	if !bytes.Equal(got, model[:in.Size]) {
		t.Fatal("file content diverged from model after random writes")
	}
}

func TestFreeInodeReleasesEverything(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	free0 := v.FreeCount()
	v.CreateInode(c, 9, TypeFile)
	writeRead(t, v, c, 9, 0, bytes.Repeat([]byte{7}, 32*BlockSize))
	if err := v.FreeInode(c, 9); err != nil {
		t.Fatal(err)
	}
	if v.FreeCount() != free0 {
		t.Fatalf("free = %d, want %d", v.FreeCount(), free0)
	}
	if _, err := v.ReadInode(c, 9); err != ErrNoInode {
		t.Fatalf("inode still live: %v", err)
	}
}

// TestRecycledBlockReadsZero: a block a deleted file freed and a new file
// got back must not show the deleted bytes through the new file's unwritten
// part, which POSIX says reads zero.
func TestRecycledBlockReadsZero(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 9, TypeFile)
	writeRead(t, v, c, 9, 0, bytes.Repeat([]byte{0xAB}, BlockSize))
	a, _ := v.ReadInode(c, 9)
	old := v.LookupRange(c, &a, 0, 1, nil)[0].BlkNo
	if err := v.FreeInode(c, 9); err != nil {
		t.Fatal(err)
	}
	v.nextHit = 0 // next-fit hands the freed blocks out again
	v.CreateInode(c, 10, TypeFile)
	writeRead(t, v, c, 10, 100, []byte{1})
	b, _ := v.ReadInode(c, 10)
	if blk := v.LookupRange(c, &b, 0, 1, nil)[0].BlkNo; blk != old {
		t.Fatalf("the new file got block %d, not the freed block %d", blk, old)
	}
	got := make([]byte, 100)
	if n, err := v.ReadFile(c, 10, 0, got); err != nil || n != 100 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, make([]byte, 100)) {
		t.Fatalf("a recycled block shows a deleted file's bytes: % x…", got[:8])
	}
}

// TestFreePathCrashOrder kills a costed FreeInode and a costed Truncate(0)
// at every point of their run, 25 ns apart, which lands inside each of
// their PM writes in turn. After each kill, in the volatile view and again
// after a crash, every block a live inode still references must read its
// old bytes: a free may discard a block only after the inode that pointed
// at it is durable. The victim maps three one-block extents interleaved
// with a bystander's, so each op makes five writes: the inode, then four
// bitmap updates (three data blocks, one extent block).
//
// Replaying the op on the crashed volume, as publication replays an unlink
// from the log, must succeed at every point: the inode write comes before
// any bit is cleared, so a replay never frees a block twice. A kill between
// the inode write and the last bitmap write leaks the blocks whose bits are
// still set; the test bounds the leak at the four runs and logs where.
func TestFreePathCrashOrder(t *testing.T) {
	t.Parallel()
	const victim, bystander = Ino(9), Ino(10)
	ops := []struct {
		name string
		run  func(v *Vol, c *Ctx) error
	}{
		{"FreeInode", func(v *Vol, c *Ctx) error { return v.FreeInode(c, victim) }},
		{"Truncate(0)", func(v *Vol, c *Ctx) error { return v.Truncate(c, victim, 0) }},
	}
	want := map[Ino][]byte{victim: make([]byte, 3*BlockSize), bystander: make([]byte, 2*BlockSize)}
	rand.New(rand.NewSource(1)).Read(want[victim])
	rand.New(rand.NewSource(2)).Read(want[bystander])
	setup := func() (*sim.Env, *Vol) {
		env, v, c := newTestVol(t)
		v.CreateInode(c, victim, TypeFile)
		v.CreateInode(c, bystander, TypeFile)
		for blk := uint64(0); blk < 3; blk++ {
			for _, ino := range []Ino{victim, bystander} {
				if off := blk * BlockSize; off < uint64(len(want[ino])) {
					writeRead(t, v, c, ino, off, want[ino][off:off+BlockSize])
				}
			}
		}
		return env, v
	}
	// check mounts the device as it stands and compares every live inode's
	// bytes with what was written.
	check := func(pm *hw.PM, where string) *Vol {
		t.Helper()
		c := NoCostCtx(pm)
		v, err := Mount(pm.Env, c, 0)
		if err != nil {
			t.Fatalf("%s: mount: %v", where, err)
		}
		for ino, data := range want {
			in, err := v.ReadInode(c, ino)
			if err != nil {
				continue // freed
			}
			got := make([]byte, in.Size)
			if _, err := v.ReadFile(c, ino, 0, got); err != nil || !bytes.Equal(got, data[:in.Size]) {
				t.Fatalf("%s: live inode %d does not read its old bytes (%v)", where, ino, err)
			}
		}
		return v
	}
	for _, op := range ops {
		env, v := setup()
		env.Go("dry", func(p *sim.Proc) { _ = op.run(v, &Ctx{P: p, PM: v.pm}) })
		env.Run()
		end, freeAfter := time.Duration(env.Now()), v.FreeCount()

		issued := map[int64]bool{}
		var leaks []time.Duration
		for at := time.Duration(0); at <= end; at += 25 * time.Nanosecond {
			env, v := setup()
			pm := v.pm
			wl := hw.NewLink(env, "writes", 0, 1e12)
			proc := env.Go(op.name, func(p *sim.Proc) {
				_ = op.run(v, &Ctx{P: p, PM: pm, WriteLink: wl})
			})
			env.RunUntil(time.Duration(env.Now()) + at)
			proc.Kill()
			env.Run()
			issued[wl.Bytes.Total()] = true
			where := fmt.Sprintf("%s killed at +%v", op.name, at)
			check(pm, where)
			pm.Crash()
			replay := check(pm, where+", then crashed")
			// An unlink's replay finds a freed inode gone and stops there.
			if err := op.run(replay, NoCostCtx(pm)); err != nil && err != ErrNoInode {
				t.Fatalf("%s: replay: %v", where, err)
			}
			switch leak := int64(freeAfter) - int64(replay.FreeCount()); {
			case leak < 0 || leak > 4:
				t.Fatalf("%s: replay leaves %d blocks free, a clean run %d", where, replay.FreeCount(), freeAfter)
			case leak > 0:
				leaks = append(leaks, at)
			}
		}
		if len(issued) != 6 {
			t.Errorf("%s: kills fell after %d distinct write prefixes, want all 6 (none, then each of five writes)", op.name, len(issued))
		}
		if n := len(leaks); n > 0 {
			t.Logf("%s: the replay leaks blocks after a kill at %d points of %v, from +%v to +%v",
				op.name, n, end, leaks[0], leaks[n-1])
		}
	}
}

func TestPublishIsIdempotent(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	entries := []*Entry{
		{Seq: 0, Type: OpCreate, Ino: 9, PIno: RootIno, Name: "f"},
		{Seq: 1, Type: OpWrite, Ino: 9, Off: 0, Data: []byte("payload")},
	}
	if err := v.ApplyAll(c, entries, nil); err != nil {
		t.Fatal(err)
	}
	// Replaying after a simulated publication crash must succeed and leave
	// identical state.
	if err := v.ApplyAll(c, entries, nil); err != nil {
		t.Fatalf("replay: %v", err)
	}
	buf := make([]byte, 7)
	n, _ := v.ReadFile(c, 9, 0, buf)
	if n != 7 || string(buf) != "payload" {
		t.Fatalf("after replay: %q", buf[:n])
	}
}

func TestApplyNamespaceOps(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	entries := []*Entry{
		{Type: OpMkdir, Ino: 2, PIno: RootIno, Name: "d"},
		{Type: OpCreate, Ino: 3, PIno: 2, Name: "f"},
		{Type: OpWrite, Ino: 3, Off: 0, Data: []byte("abc")},
		{Type: OpRename, Ino: 3, PIno: 2, Name: "f", PIno2: RootIno, Name2: "g"},
	}
	if err := v.ApplyAll(c, entries, nil); err != nil {
		t.Fatal(err)
	}
	ino, err := v.Resolve(c, "/g")
	if err != nil || ino != 3 {
		t.Fatalf("post-rename resolve = %d, %v", ino, err)
	}
	if _, err := v.Resolve(c, "/d/f"); err != ErrNotExist {
		t.Fatalf("old name still resolves: %v", err)
	}
	// Unlink and rmdir.
	more := []*Entry{
		{Type: OpUnlink, Ino: 3, PIno: RootIno, Name: "g"},
		{Type: OpRmdir, Ino: 2, PIno: RootIno, Name: "d"},
	}
	if err := v.ApplyAll(c, more, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReadInode(c, 3); err != ErrNoInode {
		t.Fatal("unlinked inode survives")
	}
	if _, err := v.ReadInode(c, 2); err != ErrNoInode {
		t.Fatal("removed dir inode survives")
	}
}

func TestApplyRmdirNotEmpty(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	setup := []*Entry{
		{Type: OpMkdir, Ino: 2, PIno: RootIno, Name: "d"},
		{Type: OpCreate, Ino: 3, PIno: 2, Name: "f"},
	}
	if err := v.ApplyAll(c, setup, nil); err != nil {
		t.Fatal(err)
	}
	err := v.ApplyEntry(c, &Entry{Type: OpRmdir, Ino: 2, PIno: RootIno, Name: "d"}, nil)
	if err != ErrNotEmpty {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
}

func TestApplyRenameOverExisting(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	setup := []*Entry{
		{Type: OpCreate, Ino: 3, PIno: RootIno, Name: "src"},
		{Type: OpCreate, Ino: 4, PIno: RootIno, Name: "dst"},
		{Type: OpWrite, Ino: 4, Off: 0, Data: []byte("old")},
		{Type: OpRename, Ino: 3, PIno: RootIno, Name: "src", PIno2: RootIno, Name2: "dst"},
	}
	if err := v.ApplyAll(c, setup, nil); err != nil {
		t.Fatal(err)
	}
	ino, err := v.Resolve(c, "/dst")
	if err != nil || ino != 3 {
		t.Fatalf("resolve dst = %d, %v", ino, err)
	}
	if _, err := v.ReadInode(c, 4); err != ErrNoInode {
		t.Fatal("replaced inode not freed")
	}
}

func TestApplyRenameCycleRejected(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	setup := []*Entry{
		{Type: OpMkdir, Ino: 2, PIno: RootIno, Name: "a"},
		{Type: OpMkdir, Ino: 3, PIno: 2, Name: "b"},
	}
	if err := v.ApplyAll(c, setup, nil); err != nil {
		t.Fatal(err)
	}
	// Moving /a into /a/b would orphan the subtree into a cycle.
	err := v.ApplyEntry(c, &Entry{Type: OpRename, Ino: 2, PIno: RootIno, Name: "a", PIno2: 3, Name2: "a2"}, nil)
	if err == nil {
		t.Fatal("cycle-creating rename accepted")
	}
	// A legal directory rename still works.
	if err := v.ApplyEntry(c, &Entry{Type: OpMkdir, Ino: 4, PIno: RootIno, Name: "c"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := v.ApplyEntry(c, &Entry{Type: OpRename, Ino: 3, PIno: 2, Name: "b", PIno2: 4, Name2: "b2"}, nil); err != nil {
		t.Fatalf("legal dir rename rejected: %v", err)
	}
}
