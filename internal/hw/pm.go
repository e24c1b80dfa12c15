package hw

import (
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
// slot in slabs that are appended on demand; a page materializes on first
// write and an absent page reads as zeros. A page is in one of three
// states:
//
//	absent  cur == 0            never written: reads zeros, durably zeros
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
	dir   []pmPage // one per 4 KiB page of the device
	slabs [][]byte // slot k (from 1) is page (k-1)%slabPages of slab (k-1)/slabPages
	slots int32    // slots carved from the slabs so far
	free  []int32  // released slots; their bytes are stale, never zero
	dirty []pmSpan // sorted non-overlapping spans of unpersisted bytes
	spare []pmSpan // scratch for persist-time span rebuilds

	ReadLat  time.Duration
	WriteLat time.Duration
	link     *Link
}

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

// NewPM creates a PM device.
func NewPM(env *sim.Env, name string, cfg PMConfig) *PM {
	return &PM{
		Env:      env,
		Name:     name,
		size:     cfg.Size,
		dir:      make([]pmPage, (cfg.Size+pageSize-1)>>pageShift),
		ReadLat:  cfg.ReadLat,
		WriteLat: cfg.WriteLat,
		link:     newPMLink(env, name, cfg.Bandwidth),
	}
}

// Size returns the device capacity in bytes.
func (pm *PM) Size() int64 { return pm.size }

// ResidentBytes reports the host memory behind the device's bytes: every
// slot carved so far, released ones included (they stay mapped for reuse).
func (pm *PM) ResidentBytes() int64 { return int64(pm.slots) << pageShift }

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
func (pm *PM) slot(k int32) []byte {
	i := int(k - 1)
	base := i % slabPages << pageShift
	return pm.slabs[i/slabPages][base : base+pageSize]
}

// takeSlot returns a slot whose bytes are unspecified: a released slot if
// there is one, else the next page of the newest slab.
func (pm *PM) takeSlot() int32 {
	if n := len(pm.free); n > 0 {
		k := pm.free[n-1]
		pm.free = pm.free[:n-1]
		return k
	}
	pm.carve()
	pm.slots++
	return pm.slots
}

// carve extends the slabs by one page. A slab's length is its bump pointer;
// a new slab is appended when the newest is full.
func (pm *PM) carve() {
	if n := len(pm.slabs) - 1; n >= 0 && len(pm.slabs[n]) < cap(pm.slabs[n]) {
		pm.slabs[n] = pm.slabs[n][:len(pm.slabs[n])+pageSize]
		return
	}
	pm.slabs = append(pm.slabs, make([]byte, pageSize, slabSize))
}

// Read copies n=len(dst) bytes at off into dst, charging media latency and
// bandwidth to p. The read observes unpersisted writes (program order).
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
			copy(dst[:n], pm.slot(k)[in:])
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
// retained).
//
//linefs:hotpath
func (pm *PM) WriteNoCost(off int64, src []byte) {
	pm.check(off, len(src))
	pm.markDirty(off, off+int64(len(src)))
	for len(src) > 0 {
		pg := &pm.dir[off>>pageShift]
		in := int(off & (pageSize - 1))
		n := min(len(src), pageSize-in)
		if pg.img == 0 {
			pm.setAside(pg, in, in+n)
		}
		copy(pm.slot(pg.cur)[in:], src[:n])
		src, off = src[n:], off+int64(n)
	}
}

// setAside makes a clean or absent page dirty ahead of a write to its bytes
// [lo, hi): the current slot becomes the durable image and the read view
// moves to another slot, which inherits the bytes outside [lo, hi) — none
// when the write covers the page. The new slot may be a recycled one, so
// an absent page's surroundings are cleared explicitly.
func (pm *PM) setAside(pg *pmPage, lo, hi int) {
	k := pm.takeSlot()
	dst := pm.slot(k)
	if pg.cur == 0 {
		pg.img = imgZero
		clear(dst[:lo])
		clear(dst[hi:])
	} else {
		pg.img = pg.cur
		old := pm.slot(pg.cur)
		copy(dst[:lo], old)
		copy(dst[hi:], old[hi:])
	}
	pg.cur = k
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
					pm.free = append(pm.free, pg.img)
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

// persistInto copies bytes [lo, hi) of a page that stays dirty from the
// read view into its durable image, materializing an all-zero image first.
func (pm *PM) persistInto(pg *pmPage, lo, hi int) {
	if pg.img == imgZero {
		pg.img = pm.takeSlot()
		clear(pm.slot(pg.img))
	}
	copy(pm.slot(pg.img)[lo:hi], pm.slot(pg.cur)[lo:])
}

// PersistAll flushes every pending write (a full fence; used at clean
// shutdown and in setup code).
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
			pm.free = append(pm.free, pg.cur)
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
