package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"linefs/internal/sim"
)

// PM models a byte-addressable persistent-memory device (Intel Optane DC in
// App-Direct mode). It stores real bytes and distinguishes written from
// persisted state: writes land in a volatile view and become durable only
// after a Persist barrier (clwb+fence in the real system). Crash discards
// the volatile view, which lets tests exercise prefix crash consistency for
// real.
//
// Storage is sparse and paged, so host memory follows the bytes a run
// touches and not the device size. A directory maps each 4 KiB page to a
// slot of a PageStore; a page materializes on first write and an absent
// page reads as zeros. A page is in one of three states:
//
//	absent  cur == 0            unwritten or discarded: reads zeros, durably
//	clean   cur > 0, img == 0   every byte of the cur slot is durable
//	dirty   cur > 0, img != 0   cur is the read view; img is the durable
//	                            image (a slot, or imgZero for all zeros)
//
// The first write to a clean page sets its slot aside as the durable image
// and moves the read view to another slot; persisting all of the page's
// dirty bytes drops the image again. Persist therefore moves a slot index
// where a mirrored device moves bytes, and a write covering a whole page
// (the data path: 16 KiB and 4 MiB block-aligned stores) is copied once
// between the caller's buffer and durability.
//
// The PMs of one cluster share a store, and a slot may back pages of
// several of them: a whole-page write whose bytes another device of the
// store already holds takes a reference to that slot instead of a copy
// (writePage). Every write into a slot that more than one page names copies
// it first, so sharing is invisible to every reader, and it costs no
// virtual time. A device alone in its store (NewPM) never shares.
//
// The directory and the free list hold slot indices, not pointers, and the
// slabs are pointer-free, so the garbage collector marks one pointer per
// slab whatever the device size. A sorted, coalesced span list keeps the
// byte-exact dirty ranges: a page is dirty exactly while a span intersects
// it, and within a dirty page cur and img agree outside the spans.
//
// Access costs are charged in virtual time: a fixed media latency per
// operation plus serialization through the device's shared bandwidth link.
type PM struct {
	Env  *sim.Env
	Name string

	size  int64
	store *PageStore
	id    int32    // the device's index in store.pms
	dir   []pmPage // one per 4 KiB page of the device
	dirty []pmSpan // sorted non-overlapping spans of unpersisted bytes
	spare []pmSpan // scratch for persist-time span rebuilds

	ReadLat  time.Duration
	WriteLat time.Duration
	link     *Link
}

// PageStore holds the host memory behind the pages of one or more PMs:
// slabs carved into 4 KiB slots on demand, a free list, and a reference
// count per slot — how many directory entries (cur or img, of any of its
// devices) name it. A slot goes back on the free list when its count drops
// to zero. The per-slot arrays grow with the slabs, so a store costs what
// its devices hold, not what they could. The zero value is an empty store.
type PageStore struct {
	slabs [][]byte // slot k (from 1) is page (k-1)%slabPages of slab (k-1)/slabPages
	slots int32    // slots carved from the slabs so far
	free  []int32  // released slots; their bytes are stale, never zero
	refs  []int32  // directory entries naming each slot
	pms   []*PM
	// index nominates by pageKey the slot a whole-page write last filled;
	// direct-mapped, a power of two long, empty while there is one device.
	index []pageHint
}

// pageHint is one index entry: a slot and the device whose write filled it.
type pageHint struct{ slot, pm int32 }

// The page is the file system's block and the host's page: block-aligned
// stores cover pages exactly, and a materialized slot costs the host one
// page. A slab is large enough that the runtime maps it directly and small
// enough that the unused tail of the newest one is noise.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	slabPages = 1024
	slabSize  = slabPages << pageShift

	// imgZero marks a dirty page whose durable image is all zeros: the
	// page was absent when it was first written.
	imgZero = -1
)

// pmPage is one directory entry: slot numbers, 0 meaning none.
type pmPage struct {
	cur int32 // slot holding the bytes reads observe
	img int32 // slot holding the durable bytes while the page is dirty
}

// pmSpan is a half-open byte range [off, end).
type pmSpan struct {
	off, end int64
}

// PMConfig sets PM device parameters.
type PMConfig struct {
	Size     int64
	ReadLat  time.Duration
	WriteLat time.Duration
	// Bandwidth is the device's aggregate bandwidth in bytes/sec shared by
	// all accessors (host CPU, DMA engine, RDMA).
	Bandwidth float64
}

// DefaultPMConfig mirrors the paper's testbed: 6x interleaved Optane DIMMs.
func DefaultPMConfig(size int64) PMConfig {
	return PMConfig{
		Size:      size,
		ReadLat:   300 * time.Nanosecond,
		WriteLat:  100 * time.Nanosecond,
		Bandwidth: 10e9,
	}
}

// newPMLink builds the device bandwidth link: full aggregate bandwidth for
// streaming, with fine segmentation so small metadata accesses are not
// stuck behind multi-hundred-KB bulk transfers.
func newPMLink(env *sim.Env, name string, bw float64) *Link {
	l := NewLink(env, name+"/bw", 0, bw)
	l.MaxSeg = 64 << 10
	return l
}

// NewPM creates a PM device with a page store of its own.
func NewPM(env *sim.Env, name string, cfg PMConfig) *PM {
	return new(PageStore).NewPM(env, name, cfg)
}

// NewPM creates a PM device whose pages live in st.
func (st *PageStore) NewPM(env *sim.Env, name string, cfg PMConfig) *PM {
	pm := &PM{
		Env:      env,
		Name:     name,
		size:     cfg.Size,
		store:    st,
		id:       int32(len(st.pms)),
		dir:      make([]pmPage, (cfg.Size+pageSize-1)>>pageShift),
		ReadLat:  cfg.ReadLat,
		WriteLat: cfg.WriteLat,
		link:     newPMLink(env, name, cfg.Bandwidth),
	}
	st.pms = append(st.pms, pm)
	st.grow()
	return pm
}

// ResidentBytes reports the host memory behind the device's bytes: every
// slot its store has carved, released ones included (they stay mapped for
// reuse). The PMs of a cluster share one store, so each reports the
// cluster's total; count it once.
func (pm *PM) ResidentBytes() int64 { return int64(pm.store.slots) << pageShift }

// Link exposes the device bandwidth link so co-located engines (DMA) can
// share it.
func (pm *PM) Link() *Link { return pm.link }

func (pm *PM) check(off int64, n int) {
	if off < 0 || off+int64(n) > pm.size {
		panic(fmt.Sprintf("hw: PM %s access out of range: off=%d n=%d size=%d",
			pm.Name, off, n, pm.size))
	}
}

// slot returns the page-sized window of slot k.
func (st *PageStore) slot(k int32) []byte {
	i := int(k - 1)
	base := i % slabPages << pageShift
	return st.slabs[i/slabPages][base : base+pageSize]
}

// take returns a slot with one reference and unspecified bytes: a released
// slot if there is one, else the next page of the newest slab.
func (st *PageStore) take() int32 {
	k := st.slots + 1
	if n := len(st.free); n > 0 {
		k, st.free = st.free[n-1], st.free[:n-1]
	} else {
		st.carve()
		st.slots = k
	}
	st.refs[k] = 1
	return k
}

// release drops one reference to slot k, freeing it with the last.
func (st *PageStore) release(k int32) {
	st.refs[k]--
	if st.refs[k] == 0 {
		st.free = append(st.free, k)
	}
}

// carve extends the slabs by one page. A slab's length is its bump pointer;
// a new slab is appended when the newest is full.
func (st *PageStore) carve() {
	if n := len(st.slabs) - 1; n >= 0 && len(st.slabs[n]) < cap(st.slabs[n]) {
		st.slabs[n] = st.slabs[n][:len(st.slabs[n])+pageSize]
		return
	}
	st.slabs = append(st.slabs, make([]byte, pageSize, slabSize))
	st.grow()
}

// grow sizes the per-slot counts for the slots the slabs hold (at least 16
// slabs' worth) and, from a store's second device, the index at four
// entries per slot, at least doubling either. Live hints move along.
func (st *PageStore) grow() {
	n := max(len(st.slabs), 16) * slabPages
	if len(st.refs) <= n {
		refs := make([]int32, max(n+1, 2*len(st.refs)))
		copy(refs, st.refs)
		st.refs = refs
	}
	if len(st.pms) < 2 || len(st.index) >= 4*n {
		return
	}
	size := max(slabPages, len(st.index)) // a power of two: key & mask
	for size < 4*n {
		size <<= 1
	}
	old := st.index
	st.index = make([]pageHint, size)
	for _, h := range old {
		if h.slot != 0 && st.refs[h.slot] > 0 {
			st.index[pageKey(st.slot(h.slot))&uint64(len(st.index)-1)] = h
		}
	}
}

// Read copies n=len(dst) bytes at off into dst, charging media latency and
// bandwidth to p. The read observes unpersisted writes (program order).
//
//linefs:hotpath
func (pm *PM) Read(p *sim.Proc, off int64, dst []byte) {
	p.Sleep(pm.ReadLat)
	pm.link.Transfer(p, len(dst), 0)
	pm.ReadNoCost(off, dst)
}

// ReadNoCost copies bytes without charging time (for accessors whose cost
// is modeled elsewhere, and for test inspection). Absent pages zero-fill
// dst, which callers reuse as scratch.
//
//linefs:hotpath
func (pm *PM) ReadNoCost(off int64, dst []byte) {
	pm.check(off, len(dst))
	for len(dst) > 0 {
		in := int(off & (pageSize - 1))
		n := min(len(dst), pageSize-in)
		if k := pm.dir[off>>pageShift].cur; k != 0 {
			copy(dst[:n], pm.store.slot(k)[in:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+int64(n)
	}
}

// Write stores src at off into the volatile overlay, charging media latency
// and bandwidth. Data becomes durable only after Persist covers it.
func (pm *PM) Write(p *sim.Proc, off int64, src []byte) {
	pm.WriteAmp(p, off, src, 1)
}

// WriteAmp is Write with a memory-system amplification factor: CPU stores
// into PM cost several times their payload in memory traffic (read-modify-
// write at cacheline granularity, write-combining misses, cache pollution),
// which is how a host-based DFS interferes with memory-bound co-runners.
//
//linefs:hotpath
func (pm *PM) WriteAmp(p *sim.Proc, off int64, src []byte, amp int) {
	if amp < 1 {
		amp = 1
	}
	p.Sleep(pm.WriteLat)
	pm.link.Transfer(p, len(src)*amp, 0)
	pm.WriteNoCost(off, src)
}

// WriteNoCost stores bytes without charging time: one copy into the read
// view plus a span-list update, no allocation in steady state (src is not
// retained). A whole page another device of the store holds is not copied
// at all.
//
//linefs:hotpath
func (pm *PM) WriteNoCost(off int64, src []byte) {
	pm.check(off, len(src))
	pm.markDirty(off, off+int64(len(src)))
	for len(src) > 0 {
		pg := &pm.dir[off>>pageShift]
		in := int(off & (pageSize - 1))
		n := min(len(src), pageSize-in)
		if n == pageSize && len(pm.store.index) > 0 {
			pm.writePage(pg, off>>pageShift, src[:n])
		} else {
			pm.writeSlot(pg, in, src[:n])
		}
		src, off = src[n:], off+int64(n)
	}
}

// writeSlot copies src into the page's read view at in, first giving the
// page a slot of its own: a clean or absent page is set aside, and a dirty
// page whose read view other pages name copies it.
func (pm *PM) writeSlot(pg *pmPage, in int, src []byte) {
	if pg.img == 0 || pm.store.refs[pg.cur] > 1 {
		pm.retire(pg, pm.moveCur(pg, in, in+len(src)))
	}
	copy(pm.store.slot(pg.cur)[in:], src)
}

// retire disposes of old, the slot a page's read view just left: it
// becomes the durable image of a page that was clean or absent (imgZero
// for none) and loses the page's reference if the page was already dirty.
func (pm *PM) retire(pg *pmPage, old int32) {
	switch {
	case pg.img != 0:
		pm.store.release(old)
	case old == 0:
		pg.img = imgZero
	default:
		pg.img = old
	}
}

// moveCur points the page's read view at a fresh slot that inherits the
// bytes outside [lo, hi) — none when the write covers the page — and
// returns the slot it left, still referenced. The new slot may be a
// recycled one, so an absent page's surroundings are cleared explicitly.
func (pm *PM) moveCur(pg *pmPage, lo, hi int) int32 {
	st := pm.store
	k := st.take()
	dst := st.slot(k)
	if pg.cur == 0 {
		clear(dst[:lo])
		clear(dst[hi:])
	} else {
		old := st.slot(pg.cur)
		copy(dst[:lo], old)
		copy(dst[hi:], old[hi:])
	}
	old := pg.cur
	pg.cur = k
	return old
}

// writePage stores the whole page src at page p of a device that shares its
// store. When another device holds the same bytes — its page p (replicas
// keep their log mirrors, and mostly their public blocks, at the primary's
// offsets), or else the slot the index nominates — the page takes a
// reference to that slot and copies nothing; otherwise it is written as
// any page and indexed. bytes.Equal decides a match, never the key.
func (pm *PM) writePage(pg *pmPage, p int64, src []byte) {
	st := pm.store
	var k int32
	for _, sib := range st.pms {
		if sib != pm && p < int64(len(sib.dir)) && sib.dir[p].cur != 0 && bytes.Equal(st.slot(sib.dir[p].cur), src) {
			k = sib.dir[p].cur
			break
		}
	}
	key := pageKey(src)
	h := st.index[key&uint64(len(st.index)-1)]
	if k == 0 && h.slot != 0 && h.pm != pm.id && st.refs[h.slot] > 0 && bytes.Equal(st.slot(h.slot), src) {
		k = h.slot
	}
	if k == 0 {
		pm.writeSlot(pg, 0, src) // may grow the index
		st.index[key&uint64(len(st.index)-1)] = pageHint{slot: pg.cur, pm: pm.id}
		return
	}
	st.refs[k]++
	pm.retire(pg, pg.cur)
	pg.cur = k
}

// pageKey mixes eight words sampled across a page into an index key.
func pageKey(src []byte) uint64 {
	var h uint64
	for i := 0; i < 8; i++ {
		h = (h ^ binary.LittleEndian.Uint64(src[i*(pageSize-8)/7:])) * 0x9e3779b97f4a7c15
	}
	return h ^ h>>32
}

// markDirty records [lo, hi) as possibly differing from durable data,
// keeping pm.dirty sorted and coalesced. Log appends hit the two fast
// paths (extend the last span or start a new one past it) without a search.
func (pm *PM) markDirty(lo, hi int64) {
	if lo >= hi {
		return
	}
	d := pm.dirty
	n := len(d)
	if n == 0 || lo > d[n-1].end {
		pm.dirty = append(d, pmSpan{off: lo, end: hi})
		return
	}
	if last := &d[n-1]; lo >= last.off {
		if hi > last.end {
			last.end = hi
		}
		return
	}
	// General case: merge with every span overlapping or adjacent to
	// [lo, hi). i is the first such span, j the first past the window.
	i := sort.Search(n, func(k int) bool { return d[k].end >= lo })
	j := sort.Search(n, func(k int) bool { return d[k].off > hi })
	if i == j { // disjoint: insert at i
		d = append(d, pmSpan{})
		copy(d[i+1:], d[i:])
		d[i] = pmSpan{off: lo, end: hi}
		pm.dirty = d
		return
	}
	if d[i].off < lo {
		lo = d[i].off
	}
	if d[j-1].end > hi {
		hi = d[j-1].end
	}
	d[i] = pmSpan{off: lo, end: hi}
	pm.dirty = append(d[:i+1], d[j:]...)
}

// WritePersist writes src and immediately persists it (the common
// clwb-per-store pattern on the log append path).
func (pm *PM) WritePersist(p *sim.Proc, off int64, src []byte) {
	pm.Write(p, off, src)
	pm.Persist(p, off, int64(len(src)))
}

// Persist makes all writes overlapping [off, off+n) durable, charging a
// flush cost proportional to the range.
//
//linefs:hotpath
func (pm *PM) Persist(p *sim.Proc, off, n int64) {
	p.Sleep(pm.WriteLat) // fence cost
	pm.PersistNoCost(off, n)
}

// PersistNoCost makes the dirty parts of [off, off+n) durable without
// charging time. Dirty spans straddling the window edge stay volatile
// outside it. A page left with no dirty byte drops its durable image (the
// read view is the durable view now); a page that keeps dirty bytes outside
// the window has the persisted ones copied into its image.
//
//linefs:hotpath
func (pm *PM) PersistNoCost(off, n int64) {
	lo, hi := off, off+n
	kept := pm.dirtyOutside(lo, hi)
	// Both lists are sorted, so k only moves forward: kept[k] is the first
	// span ending past the start of the page under consideration.
	k := 0
	for _, s := range pm.dirty {
		ps, pe := max(s.off, lo), min(s.end, hi)
		for ps < pe {
			pageLo := ps &^ (pageSize - 1)
			end := min(pe, pageLo+pageSize)
			for k < len(kept) && kept[k].end <= pageLo {
				k++
			}
			pg := &pm.dir[ps>>pageShift]
			if k == len(kept) || kept[k].off >= pageLo+pageSize {
				if pg.img > 0 {
					pm.store.release(pg.img)
				}
				pg.img = 0
			} else {
				pm.persistInto(pg, int(ps-pageLo), int(end-pageLo))
			}
			ps = end
		}
	}
	pm.spare = pm.dirty[:0]
	pm.dirty = kept
}

// dirtyOutside returns the dirty spans with [lo, hi) cut out, built in the
// spare list; the caller swaps it in as pm.dirty.
func (pm *PM) dirtyOutside(lo, hi int64) []pmSpan {
	kept := pm.spare[:0]
	for _, s := range pm.dirty {
		if s.end <= lo || s.off >= hi {
			kept = append(kept, s)
			continue
		}
		if s.off < lo {
			kept = append(kept, pmSpan{off: s.off, end: lo})
		}
		if hi < s.end {
			kept = append(kept, pmSpan{off: hi, end: s.end})
		}
	}
	return kept
}

// Discard makes every whole page in [off, off+n) absent, dirty or not: it
// reads zeros, also after a Crash, and drops its references to its slots.
// Partial edge pages are untouched. It charges no time: real PM keeps dead
// bytes for free, only the host memory behind them is released. Callers
// discard only ranges nothing durable references any more.
//
//linefs:hotpath
func (pm *PM) Discard(off, n int64) {
	pm.check(off, int(n))
	lo := (off + pageSize - 1) &^ (pageSize - 1)
	hi := (off + n) &^ (pageSize - 1)
	if lo >= hi {
		return
	}
	kept := pm.dirtyOutside(lo, hi)
	pm.spare = pm.dirty[:0]
	pm.dirty = kept
	for p := lo >> pageShift; p < hi>>pageShift; p++ {
		pg := &pm.dir[p]
		if pg.cur != 0 {
			pm.store.release(pg.cur)
		}
		if pg.img > 0 {
			pm.store.release(pg.img)
		}
		*pg = pmPage{}
	}
}

// persistInto copies bytes [lo, hi) of a page that stays dirty from the
// read view into its durable image, materializing an all-zero image first
// and copying an image other pages name.
func (pm *PM) persistInto(pg *pmPage, lo, hi int) {
	st := pm.store
	switch {
	case pg.img == imgZero:
		pg.img = st.take()
		clear(st.slot(pg.img))
	case st.refs[pg.img] > 1:
		k := st.take()
		copy(st.slot(k), st.slot(pg.img))
		st.release(pg.img)
		pg.img = k
	}
	copy(st.slot(pg.img)[lo:hi], st.slot(pg.cur)[lo:])
}

// PersistAll flushes every pending write at no virtual cost: a full fence
// tests use to make a device wholly durable before a crash.
func (pm *PM) PersistAll() {
	pm.PersistNoCost(0, pm.size)
}

// Crash discards all unpersisted writes, emulating power loss or an OS
// crash before the data reached the persistence domain: every dirty page's
// read view is rewound to its durable image.
func (pm *PM) Crash() {
	for _, s := range pm.dirty {
		for p := s.off >> pageShift; p <= (s.end-1)>>pageShift; p++ {
			pg := &pm.dir[p]
			if pg.img == 0 {
				continue // rewound under an earlier span
			}
			pm.store.release(pg.cur)
			pg.cur, pg.img = max(pg.img, 0), 0 // imgZero: absent again
		}
	}
	pm.dirty = pm.dirty[:0]
}

// PendingBytes reports the volume of unpersisted data (test helper).
// Overlapping writes count once: spans are coalesced.
func (pm *PM) PendingBytes() int64 {
	var n int64
	for _, s := range pm.dirty {
		n += s.end - s.off
	}
	return n
}
