package hw

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"linefs/internal/sim"
)

// pmModel is the obviously-correct PM reference: two full arrays, where
// persist copies the window wholesale (unwritten bytes are identical in
// both views, so copying them is the identity) and crash rewinds the
// volatile view to the durable bytes.
type pmModel struct {
	durable  []byte
	volatile []byte
}

func newPMModel(size int64) *pmModel {
	return &pmModel{durable: make([]byte, size), volatile: make([]byte, size)}
}

func (m *pmModel) write(off int64, src []byte) { copy(m.volatile[off:], src) }
func (m *pmModel) persist(off, n int64)        { copy(m.durable[off:off+n], m.volatile[off:off+n]) }
func (m *pmModel) persistAll()                 { copy(m.durable, m.volatile) }
func (m *pmModel) crash()                      { copy(m.volatile, m.durable) }

// discard zeroes, in both views, the whole pages inside [off, off+n).
func (m *pmModel) discard(off, n int64) {
	lo := (off + pageSize - 1) / pageSize * pageSize
	hi := (off + n) / pageSize * pageSize
	for i := lo; i < hi; i++ {
		m.volatile[i], m.durable[i] = 0, 0
	}
}

// pmPair applies every operation to the device and to the model and
// compares the two views.
type pmPair struct {
	t     *testing.T
	pm    *PM
	model *pmModel
	got   []byte
	where string
}

func newPMPair(t *testing.T, size int64) *pmPair {
	return &pmPair{
		t:     t,
		pm:    NewPM(sim.NewEnv(1), "pm", PMConfig{Size: size, Bandwidth: 1e9}),
		model: newPMModel(size),
		got:   make([]byte, size),
	}
}

func (pp *pmPair) write(off int64, src []byte) {
	pp.pm.WriteNoCost(off, src)
	pp.model.write(off, src)
}

func (pp *pmPair) persist(off, n int64) {
	pp.pm.PersistNoCost(off, n)
	pp.model.persist(off, n)
}

func (pp *pmPair) discard(off, n int64) {
	pp.pm.Discard(off, n)
	pp.model.discard(off, n)
}

// persistAll fences both; afterwards no page may still hold an image.
func (pp *pmPair) persistAll() {
	pp.t.Helper()
	pp.pm.PersistAll()
	pp.model.persistAll()
	for i, pg := range pp.pm.dir {
		if pg.img != 0 {
			pp.t.Fatalf("%s: page %d keeps a durable image after a full fence", pp.where, i)
		}
	}
}

// checkRead compares the read view over [off, off+n). The destination is
// poisoned first: a read must overwrite every byte, absent pages included.
func (pp *pmPair) checkRead(off, n int64) {
	pp.t.Helper()
	got := pp.got[:n]
	for i := range got {
		got[i] = 0xA5
	}
	pp.pm.ReadNoCost(off, got)
	if !bytes.Equal(got, pp.model.volatile[off:off+n]) {
		pp.t.Fatalf("%s: read view diverged in [%d,%d)", pp.where, off, off+n)
	}
}

// crash cuts power on both and compares the whole durable view.
func (pp *pmPair) crash() {
	pp.t.Helper()
	pp.pm.Crash()
	pp.model.crash()
	if pp.pm.PendingBytes() != 0 {
		pp.t.Fatalf("%s: %d bytes pending after crash", pp.where, pp.pm.PendingBytes())
	}
	pp.checkRead(0, pp.pm.Size())
}

// TestPMMatchesModel drives the paged PM and the naive model with the same
// operations, comparing the read view throughout and the durable view after
// every crash. Each seed starts with a script that walks the page-state
// transitions one by one, then runs a random mix of writes of up to five
// pages (offsets and lengths biased to page boundaries, so whole-page
// covers are common), persists that split pages, full fences, crashes and
// discards with ragged edges. The device is not a whole number of pages.
func TestPMMatchesModel(t *testing.T) {
	t.Parallel()
	const size = 16*pageSize + 1234
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pp := newPMPair(t, size)
		buf := make([]byte, 5*pageSize)
		fill := func(n int) []byte { rng.Read(buf[:n]); return buf[:n] }

		// Two dirty spans in one absent page, persisted one at a time: the
		// first persist must build the durable image from nothing.
		pp.where = "script: split persist of an absent page"
		pp.write(100, fill(50))
		pp.write(3000, fill(50))
		pp.persist(0, 1000)
		pp.checkRead(0, size)
		pp.crash()
		// The same on a page that is now resident and clean.
		pp.where = "script: split persist of a clean page"
		pp.write(200, fill(50))
		pp.write(2000, fill(50))
		pp.persist(2000, 50)
		pp.crash()
		// Overwrite, persist, overwrite: the second round runs on released
		// slots that still hold the first round's bytes. Neither view may
		// show them, also not around a partial write to an absent page.
		pp.where = "script: recycled slots"
		pp.write(2*pageSize, fill(3*pageSize))
		pp.persist(2*pageSize, 3*pageSize)
		pp.write(2*pageSize, fill(3*pageSize))
		pp.persist(2*pageSize, 3*pageSize)
		pp.write(2*pageSize, fill(3*pageSize))
		pp.write(8*pageSize+7, fill(9))
		pp.checkRead(0, size)
		pp.crash()
		// A full fence leaves nothing for a crash to undo.
		pp.where = "script: PersistAll then Crash"
		pp.write(pageSize-10, fill(pageSize+20))
		pp.write(size-5, fill(5))
		pp.persistAll()
		resident := pp.pm.ResidentBytes()
		pp.crash()
		if pp.pm.ResidentBytes() != resident {
			t.Fatalf("seed %d: crash after a full fence changed residency", seed)
		}

		for op := 0; op < 600; op++ {
			pp.where = fmt.Sprintf("seed %d op %d", seed, op)
			switch rng.Intn(11) {
			case 0, 1, 2, 3, 4: // write
				n := 1 + rng.Intn(len(buf))
				if rng.Intn(2) == 0 {
					n = (1 + rng.Intn(5)) * pageSize
				}
				off := int64(rng.Intn(size - n + 1))
				if rng.Intn(2) == 0 {
					off &^= pageSize - 1
				}
				pp.write(off, fill(n))
			case 5, 6: // partial persist
				n := int64(1 + rng.Intn(2*pageSize))
				off := int64(rng.Intn(size - int(n) + 1))
				pp.persist(off, n)
			case 7: // full fence
				pp.persistAll()
			case 8: // crash, often straight after a partial persist
				pp.crash()
			case 9: // read a window
				n := 1 + rng.Intn(size/4)
				pp.checkRead(int64(rng.Intn(size-n+1)), int64(n))
			case 10: // discard, whole pages inside ragged edges
				n := 1 + rng.Intn(4*pageSize)
				pp.discard(int64(rng.Intn(size-n+1)), int64(n))
			}
		}
		pp.where = fmt.Sprintf("seed %d end", seed)
		pp.checkRead(0, size)
		pp.crash()
		if limit := int64(2 * len(pp.pm.dir) * pageSize); pp.pm.ResidentBytes() > limit {
			t.Fatalf("seed %d: %d bytes resident, more than two slots per page", seed, pp.pm.ResidentBytes())
		}
	}
}

// TestPMFreshDeviceIsFree checks that a device costs nothing until it is
// written: 64 GiB can be created, holds no slot, and reads zeros anywhere;
// one byte written makes one page resident.
func TestPMFreshDeviceIsFree(t *testing.T) {
	t.Parallel()
	const size = 64 << 30
	pm := NewPM(sim.NewEnv(1), "pm", DefaultPMConfig(size))
	if pm.Size() != size || pm.ResidentBytes() != 0 {
		t.Fatalf("fresh device: size %d, %d bytes resident", pm.Size(), pm.ResidentBytes())
	}
	buf := make([]byte, 3*pageSize)
	for _, off := range []int64{0, 12345, size / 2, size - int64(len(buf))} {
		for i := range buf {
			buf[i] = 0xA5
		}
		pm.ReadNoCost(off, buf)
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatalf("fresh device reads non-zero bytes at %d", off)
		}
	}
	if pm.ResidentBytes() != 0 {
		t.Fatalf("reads made %d bytes resident", pm.ResidentBytes())
	}
	pm.WriteNoCost(size/2+1, []byte{1})
	if pm.ResidentBytes() != pageSize {
		t.Fatalf("one byte written: %d bytes resident, want one page", pm.ResidentBytes())
	}
	pm.PersistAll()
	pm.Crash()
	pm.ReadNoCost(size/2, buf[:3])
	if !bytes.Equal(buf[:3], []byte{0, 1, 0}) || pm.ResidentBytes() != pageSize {
		t.Fatalf("after persist and crash: read %v, %d bytes resident", buf[:3], pm.ResidentBytes())
	}
}

// TestPMDiscard walks Discard over every page state at once. The range
// [100, 5 pages + 100) has a partial page at each edge and four whole pages
// inside: page 1 dirty over an all-zero image, page 2 absent, page 3 clean,
// page 4 dirty over a slot image, with dirty spans crossing both edges.
// The whole pages read zero and free their slots; the edges keep their bytes
// and their dirty spans; a crash leaves the whole pages zero; the next
// writes reuse the freed slots without carving new ones.
func TestPMDiscard(t *testing.T) {
	t.Parallel()
	const size = 8 * pageSize
	pp := newPMPair(t, size)
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []byte { b := make([]byte, n); rng.Read(b); return b }
	pp.where = "discard"
	pp.write(0, fill(pageSize))
	pp.write(3*pageSize, fill(3*pageSize))
	pp.persistAll()
	pp.write(pageSize-50, fill(100))  // page 0 over a slot, page 1 over imgZero
	pp.write(5*pageSize-30, fill(60)) // pages 4 and 5 over slots
	resident, freed := pp.pm.ResidentBytes(), len(pp.pm.free)
	pp.discard(100, 5*pageSize)
	pp.checkRead(0, size)
	for p := 1; p <= 4; p++ {
		if pg := pp.pm.dir[p]; pg != (pmPage{}) {
			t.Fatalf("page %d is %+v after a discard, want absent", p, pg)
		}
	}
	// Page 1's cur, page 3's cur, page 4's cur and image.
	if got := len(pp.pm.free) - freed; got != 4 {
		t.Fatalf("discard freed %d slots, want 4", got)
	}
	if got := pp.pm.PendingBytes(); got != 50+30 {
		t.Fatalf("%d bytes pending after a discard, want the 80 outside it", got)
	}
	pp.crash()
	pp.where = "reuse after discard"
	pp.write(2*pageSize, fill(pageSize)) // a whole page: takes a freed slot
	pp.write(3*pageSize+7, fill(9))      // a partial one: stale slot bytes cleared
	pp.checkRead(0, size)
	pp.persistAll()
	pp.crash()
	if pp.pm.ResidentBytes() != resident {
		t.Fatalf("writes after a discard grew residency from %d to %d bytes", resident, pp.pm.ResidentBytes())
	}
	pp.where = "discard without a whole page"
	pp.write(6*pageSize-10, fill(20))
	pp.discard(6*pageSize-20, pageSize+10)
	pp.checkRead(0, size)
}

// TestPMWriteNoCostAllocFree is the 0 allocs/op gate for the PM write hot
// path: steady-state write+persist must not allocate and must not retain
// the caller's buffer.
func TestPMWriteNoCostAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	pm := NewPM(env, "pm", PMConfig{Size: 1 << 20, Bandwidth: 1e9})
	blk := make([]byte, 16<<10)
	off := int64(0)
	// Warm the span slices past their steady-state capacity.
	pm.WriteNoCost(0, blk)
	pm.PersistNoCost(0, int64(len(blk)))
	if a := testing.AllocsPerRun(100, func() {
		pm.WriteNoCost(off, blk)
		pm.PersistNoCost(off, int64(len(blk)))
		off += int64(len(blk))
		if off+int64(len(blk)) > pm.Size() {
			off = 0
		}
	}); a != 0 {
		t.Errorf("WriteNoCost+PersistNoCost steady state: %v allocs/op, want 0", a)
	}
}

// TestPMOverwriteAllocFree is the same gate on pages that are already
// resident: every write sets slots aside and every persist releases them,
// so the free list is in use and must have stopped growing.
func TestPMOverwriteAllocFree(t *testing.T) {
	env := sim.NewEnv(1)
	pm := NewPM(env, "pm", PMConfig{Size: 1 << 20, Bandwidth: 1e9})
	blk := make([]byte, 16<<10)
	step := func(off int64, n int) {
		pm.WriteNoCost(off, blk[:n])
		pm.PersistNoCost(off, int64(n))
	}
	for off := int64(0); off < pm.Size(); off += int64(len(blk)) {
		step(off, len(blk))
	}
	step(0, len(blk))
	step(100, 200) // the copy-on-write path
	resident := pm.ResidentBytes()
	off := int64(0)
	if a := testing.AllocsPerRun(200, func() {
		step(off, len(blk))
		step(off+100, 200)
		off = (off + int64(len(blk))) % pm.Size()
	}); a != 0 {
		t.Errorf("overwrite steady state: %v allocs/op, want 0", a)
	}
	if pm.ResidentBytes() != resident {
		t.Errorf("overwrite steady state grew residency from %d to %d bytes", resident, pm.ResidentBytes())
	}
}

// TestPMDiscardAllocFree is the same gate on the free path: a block is
// written, persisted, partly rewritten and discarded, over and over. Once
// the free list has held every slot, Discard moves slot numbers only, and
// the next block's writes take the slots the last one gave back.
func TestPMDiscardAllocFree(t *testing.T) {
	pm := NewPM(sim.NewEnv(1), "pm", PMConfig{Size: 1 << 20, Bandwidth: 1e9})
	blk := make([]byte, 16<<10)
	n := int64(len(blk))
	for off := int64(0); off < pm.Size(); off += n {
		pm.WriteNoCost(off, blk)
	}
	pm.Discard(0, pm.Size())
	pm.WriteNoCost(0, blk)
	resident := pm.ResidentBytes()
	off := int64(0)
	if a := testing.AllocsPerRun(200, func() {
		pm.WriteNoCost(off, blk)
		pm.PersistNoCost(off, n)
		pm.WriteNoCost(off+100, blk[:200])
		pm.Discard(off, n)
		off = (off + n) % pm.Size()
	}); a != 0 {
		t.Errorf("write+discard steady state: %v allocs/op, want 0", a)
	}
	if pm.ResidentBytes() != resident {
		t.Errorf("write+discard steady state grew residency from %d to %d bytes", resident, pm.ResidentBytes())
	}
}

func BenchmarkPMWritePersist(b *testing.B) {
	env := sim.NewEnv(1)
	pm := NewPM(env, "pm", PMConfig{Size: 64 << 20, Bandwidth: 1e9})
	blk := make([]byte, 16<<10)
	rand.New(rand.NewSource(1)).Read(blk)
	b.SetBytes(int64(len(blk)))
	b.ReportAllocs()
	b.ResetTimer()
	off := int64(0)
	for i := 0; i < b.N; i++ {
		pm.WriteNoCost(off, blk)
		pm.PersistNoCost(off, int64(len(blk)))
		off += int64(len(blk))
		if off+int64(len(blk)) > pm.Size() {
			off = 0
		}
	}
}
