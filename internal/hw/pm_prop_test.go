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
	pp.checkRead(0, pp.pm.size)
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

// TestSharedPMsMatchModel drives two PMs on one page store, each against
// its own model, with whole-page writes drawn mostly from a small pool of
// pages (so they often equal a page the other device holds, at the same
// offset or another), random partial writes into shared pages, persists,
// full fences, discards and crashes on either device. After every operation
// both read views match their models, so an operation on one device never
// shows in the other, and every crash compares the durable view. The same
// operations on two devices with stores of their own bound the shared
// store: it never has more slots in use than the two of them, and its
// reference counts always equal the directory entries that name each slot.
func TestSharedPMsMatchModel(t *testing.T) {
	t.Parallel()
	const size = 16*pageSize + 1234
	cfg := PMConfig{Size: size, Bandwidth: 1e9}

	// The two rules by hand. One page written whole by a at page 0, then by
	// b at page 0 and page 2 (the index), is one slot; a third copy by a
	// itself is a second, since a device never shares with itself. A page a
	// fills by partial writes is never indexed, so b finds it at the same
	// offset only (rule 1): a third slot for both.
	st := new(PageStore)
	a, b := st.NewPM(sim.NewEnv(1), "a", cfg), st.NewPM(sim.NewEnv(1), "b", cfg)
	page, log := bytes.Repeat([]byte{7}, pageSize), bytes.Repeat([]byte{9}, pageSize)
	for i, w := range []struct {
		pm       *PM
		off      int64
		src      []byte
		wantUsed int32
	}{
		{a, 0, page, 1}, {b, 0, page, 1}, {b, 2 * pageSize, page, 1}, {a, 4 * pageSize, page, 2},
		{a, 6 * pageSize, log[:100], 3}, {a, 6*pageSize + 100, log[100:], 3}, {b, 6 * pageSize, log, 3},
	} {
		w.pm.WriteNoCost(w.off, w.src)
		if used := st.slots - int32(len(st.free)); used != w.wantUsed {
			t.Fatalf("write %d (%s at %d): %d slots in use, want %d", i, w.pm.Name, w.off, used, w.wantUsed)
		}
	}

	shared := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := new(PageStore)
		var pps [2]*pmPair
		var alone [2]*PM
		for i := range pps {
			pps[i] = &pmPair{t: t, pm: st.NewPM(sim.NewEnv(1), fmt.Sprintf("pm%d", i), cfg), model: newPMModel(size), got: make([]byte, size)}
			alone[i] = NewPM(sim.NewEnv(1), "alone", cfg)
		}
		pool := make([]byte, 4*pageSize)
		rng.Read(pool)
		poison := bytes.Repeat([]byte{0xA5}, size)
		buf := make([]byte, 3*pageSize)
		for op := 0; op < 600; op++ {
			i := rng.Intn(2)
			pp, ref := pps[i], alone[i]
			where := fmt.Sprintf("seed %d op %d on pm %d", seed, op, i)
			pps[0].where, pps[1].where = where, where
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // whole pages, mostly from the pool
				n := (1 + rng.Intn(3)) * pageSize
				off := int64(rng.Intn(size/pageSize-n/pageSize+1)) * pageSize
				for k := 0; k < n; k += pageSize {
					if rng.Intn(4) == 0 {
						rng.Read(buf[k : k+pageSize])
					} else {
						copy(buf[k:], pool[rng.Intn(4)*pageSize:][:pageSize])
					}
				}
				pp.write(off, buf[:n])
				ref.WriteNoCost(off, buf[:n])
			case 4, 5: // a partial write, often into a shared page
				n := 1 + rng.Intn(2*pageSize)
				off := int64(rng.Intn(size - n + 1))
				rng.Read(buf[:n])
				pp.write(off, buf[:n])
				ref.WriteNoCost(off, buf[:n])
			case 6: // partial persist
				n := int64(1 + rng.Intn(2*pageSize))
				off := int64(rng.Intn(size - int(n) + 1))
				pp.persist(off, n)
				ref.PersistNoCost(off, n)
			case 7: // full fence
				pp.persistAll()
				ref.PersistAll()
			case 8: // crash
				pp.crash()
				ref.Crash()
			case 9: // discard, whole pages inside ragged edges
				n := 1 + rng.Intn(4*pageSize)
				off := int64(rng.Intn(size - n + 1))
				pp.discard(off, int64(n))
				ref.Discard(off, int64(n))
			}
			for _, pp := range pps {
				copy(pp.got, poison) // a read must overwrite every byte
				pp.pm.ReadNoCost(0, pp.got)
				if !bytes.Equal(pp.got, pp.model.volatile) {
					t.Fatalf("%s: %s's read view diverged", where, pp.pm.Name)
				}
			}
			inUse := st.slots - int32(len(st.free))
			apart := alone[0].store.slots - int32(len(alone[0].store.free)) + alone[1].store.slots - int32(len(alone[1].store.free))
			if inUse > apart {
				t.Fatalf("%s: %d slots in use, two separate stores hold %d", where, inUse, apart)
			}
			checkRefs(t, where, st)
			shared = max(shared, int(apart-inUse))
		}
		pps[0].crash()
		pps[1].crash()
	}
	if shared == 0 {
		t.Fatal("no page was ever shared")
	}
}

// checkRefs compares every slot's reference count with the directory
// entries of the store's devices that name it: a free slot has none, every
// other slot at least one.
func checkRefs(t *testing.T, where string, st *PageStore) {
	t.Helper()
	named := make([]int32, st.slots+1)
	for _, pm := range st.pms {
		for _, pg := range pm.dir {
			if pg.cur != 0 {
				named[pg.cur]++
			}
			if pg.img > 0 {
				named[pg.img]++
			}
		}
	}
	free := make([]bool, st.slots+1)
	for _, k := range st.free {
		free[k] = true
	}
	for k := int32(1); k <= st.slots; k++ {
		if st.refs[k] != named[k] || free[k] != (named[k] == 0) {
			t.Fatalf("%s: slot %d has %d references and free=%v, the directories name it %d times", where, k, st.refs[k], free[k], named[k])
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
	if pm.size != size || pm.ResidentBytes() != 0 {
		t.Fatalf("fresh device: size %d, %d bytes resident", pm.size, pm.ResidentBytes())
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
	resident, freed := pp.pm.ResidentBytes(), len(pp.pm.store.free)
	pp.discard(100, 5*pageSize)
	pp.checkRead(0, size)
	for p := 1; p <= 4; p++ {
		if pg := pp.pm.dir[p]; pg != (pmPage{}) {
			t.Fatalf("page %d is %+v after a discard, want absent", p, pg)
		}
	}
	// Page 1's cur, page 3's cur, page 4's cur and image.
	if got := len(pp.pm.store.free) - freed; got != 4 {
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
		if off+int64(len(blk)) > pm.size {
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
	for off := int64(0); off < pm.size; off += int64(len(blk)) {
		step(off, len(blk))
	}
	step(0, len(blk))
	step(100, 200) // the copy-on-write path
	resident := pm.ResidentBytes()
	off := int64(0)
	if a := testing.AllocsPerRun(200, func() {
		step(off, len(blk))
		step(off+100, 200)
		off = (off + int64(len(blk))) % pm.size
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
	for off := int64(0); off < pm.size; off += n {
		pm.WriteNoCost(off, blk)
	}
	pm.Discard(0, pm.size)
	pm.WriteNoCost(0, blk)
	resident := pm.ResidentBytes()
	off := int64(0)
	if a := testing.AllocsPerRun(200, func() {
		pm.WriteNoCost(off, blk)
		pm.PersistNoCost(off, n)
		pm.WriteNoCost(off+100, blk[:200])
		pm.Discard(off, n)
		off = (off + n) % pm.size
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
		if off+int64(len(blk)) > pm.size {
			off = 0
		}
	}
}
