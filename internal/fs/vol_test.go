package fs

import (
	"bytes"
	"testing"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

// newTestVol creates a small formatted volume with a no-cost context.
func newTestVol(t *testing.T) (*sim.Env, *Vol, *Ctx) {
	t.Helper()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(64<<20))
	v, err := Format(e, pm, 0, 32<<20, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return e, v, NoCostCtx(pm)
}

func TestFormatAndMount(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(64<<20))
	v, err := Format(e, pm, 4096, 32<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	if v.NInodes() != 512 {
		t.Errorf("inodes = %d", v.NInodes())
	}
	if v.NBlocks() == 0 {
		t.Error("no data blocks")
	}
	c := NoCostCtx(pm)
	root, err := v.ReadInode(c, RootIno)
	if err != nil || root.Type != TypeDir {
		t.Fatalf("root inode: %+v, %v", root, err)
	}
	// Remount and check the superblock survives.
	v2, err := Mount(e, c, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if v2.NBlocks() != v.NBlocks() || v2.NInodes() != v.NInodes() {
		t.Error("mounted volume differs from formatted")
	}
}

func TestFormatTooSmall(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(1<<20))
	if _, err := Format(e, pm, 0, 8192, 16); err == nil {
		t.Fatal("expected error for tiny volume")
	}
}

func TestAllocContiguity(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	a, got, err := v.AllocRange(c, 16)
	if err != nil || got != 16 {
		t.Fatalf("alloc: %d,%v", got, err)
	}
	b, got2, _ := v.AllocRange(c, 16)
	if b != a+16 || got2 != 16 {
		t.Fatalf("next-fit: first at %d, second at %d", a, b)
	}
	free := v.FreeCount()
	v.freeRange(c, a, 16)
	if v.FreeCount() != free+16 {
		t.Error("free count mismatch after freeRange")
	}
}

func TestAllocExhaustion(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	total := v.FreeCount()
	for allocated := uint64(0); allocated < total; {
		_, got, err := v.AllocRange(c, 4096)
		if err != nil {
			t.Fatalf("alloc failed with %d/%d allocated: %v", allocated, total, err)
		}
		allocated += uint64(got)
	}
	if _, _, err := v.AllocRange(c, 1); err != ErrNoSpace {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestInodeRoundTrip(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	in := Inode{Ino: 7, Type: TypeFile, Nlink: 1, Size: 12345, ExtHead: 3, ExtTail: 9, Mtime: 42}
	v.writeInode(c, &in)
	got, err := v.ReadInode(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("got %+v, want %+v", got, in)
	}
	if _, err := v.ReadInode(c, 8); err != ErrNoInode {
		t.Fatalf("free inode read err = %v", err)
	}
	if _, err := v.ReadInode(c, 0); err != ErrNoInode {
		t.Fatalf("inode 0 err = %v", err)
	}
}

func TestExtentAppendMergeLookup(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	in := Inode{Ino: 5, Type: TypeFile, Nlink: 1}
	v.writeInode(c, &in)
	if err := v.ExtentAppend(c, &in, Extent{FileBlk: 0, BlkNo: 100, Count: 4}); err != nil {
		t.Fatal(err)
	}
	// Adjacent in both file and device space: must merge.
	if err := v.ExtentAppend(c, &in, Extent{FileBlk: 4, BlkNo: 104, Count: 4}); err != nil {
		t.Fatal(err)
	}
	if n := v.ExtentCount(c, &in); n != 1 {
		t.Fatalf("extent count = %d, want 1 (merged)", n)
	}
	// Non-adjacent: new entry.
	if err := v.ExtentAppend(c, &in, Extent{FileBlk: 100, BlkNo: 500, Count: 2}); err != nil {
		t.Fatal(err)
	}
	if n := v.ExtentCount(c, &in); n != 2 {
		t.Fatalf("extent count = %d, want 2", n)
	}
	if blk, ok := v.ExtentLookup(c, &in, 6); !ok || blk != 106 {
		t.Fatalf("lookup(6) = %d,%v", blk, ok)
	}
	if blk, ok := v.ExtentLookup(c, &in, 101); !ok || blk != 501 {
		t.Fatalf("lookup(101) = %d,%v", blk, ok)
	}
	if _, ok := v.ExtentLookup(c, &in, 50); ok {
		t.Fatal("lookup in hole succeeded")
	}
}

func TestExtentChainGrowth(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	in := Inode{Ino: 5, Type: TypeFile, Nlink: 1}
	v.writeInode(c, &in)
	// Force > extPerBlock distinct entries (no merging: stride 2).
	for i := 0; i < extPerBlock+10; i++ {
		err := v.ExtentAppend(c, &in, Extent{FileBlk: uint64(i * 2), BlkNo: uint64(1000 + i*2), Count: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := v.ExtentCount(c, &in); n != extPerBlock+10 {
		t.Fatalf("count = %d", n)
	}
	if in.ExtHead == in.ExtTail {
		t.Fatal("chain did not grow a second block")
	}
	blk, ok := v.ExtentLookup(c, &in, uint64((extPerBlock+5)*2))
	if !ok || blk != uint64(1000+(extPerBlock+5)*2) {
		t.Fatalf("deep lookup = %d,%v", blk, ok)
	}
}

func TestLookupRangeRunsAndHoles(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	in := Inode{Ino: 5, Type: TypeFile, Nlink: 1}
	v.writeInode(c, &in)
	v.ExtentAppend(c, &in, Extent{FileBlk: 2, BlkNo: 200, Count: 3})
	v.ExtentAppend(c, &in, Extent{FileBlk: 8, BlkNo: 300, Count: 2})
	runs := v.LookupRange(c, &in, 0, 12, nil)
	want := []MappedRun{
		{FileBlk: 0, Count: 2},
		{FileBlk: 2, Count: 3, BlkNo: 200, Mapped: true},
		{FileBlk: 5, Count: 3},
		{FileBlk: 8, Count: 2, BlkNo: 300, Mapped: true},
		{FileBlk: 10, Count: 2},
	}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("run[%d] = %+v, want %+v", i, runs[i], want[i])
		}
	}
}

func TestDirAddLookupRemove(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 10, TypeFile)
	if err := v.DirAdd(c, RootIno, DirEnt{Ino: 10, Type: TypeFile, Name: "a.txt"}); err != nil {
		t.Fatal(err)
	}
	e, err := v.DirLookup(c, RootIno, "a.txt")
	if err != nil || e.Ino != 10 {
		t.Fatalf("lookup = %+v, %v", e, err)
	}
	if err := v.DirAdd(c, RootIno, DirEnt{Ino: 11, Name: "a.txt"}); err != ErrExist {
		t.Fatalf("duplicate add err = %v", err)
	}
	if err := v.DirRemove(c, RootIno, "a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.DirLookup(c, RootIno, "a.txt"); err != ErrNotExist {
		t.Fatalf("post-remove lookup err = %v", err)
	}
	// Slot reuse: add again fills the freed slot without growing.
	if err := v.DirAdd(c, RootIno, DirEnt{Ino: 12, Name: "b.txt"}); err != nil {
		t.Fatal(err)
	}
	in, _ := v.ReadInode(c, RootIno)
	if in.Size != BlockSize {
		t.Fatalf("root dir grew to %d, want one block", in.Size)
	}
}

func TestDirManyEntries(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	names := make([]string, 200)
	for i := range names {
		names[i] = "file" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		v.CreateInode(c, Ino(20+i), TypeFile)
		if err := v.DirAdd(c, RootIno, DirEnt{Ino: Ino(20 + i), Type: TypeFile, Name: names[i]}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	ents, err := v.DirList(c, RootIno)
	if err != nil || len(ents) != 200 {
		t.Fatalf("list = %d entries, %v", len(ents), err)
	}
	for i, n := range names {
		e, err := v.DirLookup(c, RootIno, n)
		if err != nil || e.Ino != Ino(20+i) {
			t.Fatalf("lookup %q = %+v, %v", n, e, err)
		}
	}
}

func TestDirNameTooLong(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	long := string(bytes.Repeat([]byte("x"), MaxName+1))
	if err := v.DirAdd(c, RootIno, DirEnt{Ino: 5, Name: long}); err != ErrNameLen {
		t.Fatalf("err = %v", err)
	}
}

func TestResolvePath(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 2, TypeDir)
	v.DirAdd(c, RootIno, DirEnt{Ino: 2, Type: TypeDir, Name: "dir"})
	v.CreateInode(c, 3, TypeFile)
	v.DirAdd(c, 2, DirEnt{Ino: 3, Type: TypeFile, Name: "f"})
	ino, err := v.Resolve(c, "/dir/f")
	if err != nil || ino != 3 {
		t.Fatalf("resolve = %d, %v", ino, err)
	}
	if ino, err := v.Resolve(c, "/"); err != nil || ino != RootIno {
		t.Fatalf("resolve / = %d, %v", ino, err)
	}
	if _, err := v.Resolve(c, "/dir/missing"); err != ErrNotExist {
		t.Fatalf("resolve missing = %v", err)
	}
}

func TestIsAncestor(t *testing.T) {
	t.Parallel()
	_, v, c := newTestVol(t)
	v.CreateInode(c, 2, TypeDir)
	v.DirAdd(c, RootIno, DirEnt{Ino: 2, Type: TypeDir, Name: "a"})
	v.CreateInode(c, 3, TypeDir)
	v.DirAdd(c, 2, DirEnt{Ino: 3, Type: TypeDir, Name: "b"})
	if ok, _ := v.IsAncestor(c, RootIno, 3); !ok {
		t.Error("root should be ancestor of /a/b")
	}
	if ok, _ := v.IsAncestor(c, 2, 3); !ok {
		t.Error("/a should be ancestor of /a/b")
	}
	if ok, _ := v.IsAncestor(c, 3, 2); ok {
		t.Error("/a/b is not an ancestor of /a")
	}
}

// TestMetadataCodecsAllocateNothing holds the extent and inode codecs to
// the hot-path contract (DESIGN.md §10): an append that extends the tail's
// last extent, and an inode read-modify-write, decode and encode on the
// stack; a file read over a cached extent list resolves its runs on the
// stack; and a log decode into a reused entry list allocates no entry. Not
// parallel: AllocsPerRun reads process-wide counters.
func TestMetadataCodecsAllocateNothing(t *testing.T) {
	_, v, c := newTestVol(t)
	in := Inode{Ino: 5, Type: TypeFile, Nlink: 1}
	v.writeInode(c, &in)
	next := uint64(0)
	extend := func() {
		if err := v.ExtentAppend(c, &in, Extent{FileBlk: next, BlkNo: 100 + next, Count: 1}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	extend()
	v.ExtentLookup(c, &in, 0) // the cache is loaded, as on the write path
	if n := testing.AllocsPerRun(100, extend); n != 0 {
		t.Errorf("ExtentAppend extending the tail: %v allocs/op, want 0", n)
	}
	if n := v.ExtentCount(c, &in); n != 1 {
		t.Fatalf("extent count = %d, want 1 (every append merged)", n)
	}
	roundTrip := func() {
		got, err := v.ReadInode(c, in.Ino)
		if err != nil {
			t.Fatal(err)
		}
		got.Size++
		v.writeInode(c, &got)
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("ReadInode/writeInode: %v allocs/op, want 0", n)
	}

	in.Size = next * BlockSize
	v.writeInode(c, &in)
	buf := make([]byte, 4*BlockSize)
	read := func() {
		if n, err := v.ReadFile(c, in.Ino, BlockSize/2, buf); err != nil || n != len(buf) {
			t.Fatalf("ReadFile = %d, %v", n, err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("ReadFile over a cached extent list: %v allocs/op, want 0", n)
	}

	var wire []byte
	for i := range 8 {
		e := Entry{Seq: uint64(i), Type: OpWrite, Ino: in.Ino, Off: uint64(i) * 64, Data: buf[:64]}
		wire = e.AppendWire(wire)
	}
	var list EntryList
	decode := func() {
		if ents, err := DecodeAll(wire, &list); err != nil || len(ents) != 8 {
			t.Fatalf("DecodeAll = %d entries, %v", len(ents), err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("DecodeAll into a reused list: %v allocs/op, want 0", n)
	}
}
