package fs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"linefs/internal/hw"
)

// EntryType tags an operational-log record.
type EntryType uint8

// Log entry operations. LibFS appends one entry per intercepted system
// call; publication applies them to the public area in order.
const (
	OpWrite EntryType = iota + 1
	OpCreate
	OpMkdir
	OpUnlink
	OpRmdir
	OpRename
	OpTruncate
)

func (t EntryType) String() string {
	switch t {
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpUnlink:
		return "unlink"
	case OpRmdir:
		return "rmdir"
	case OpRename:
		return "rename"
	case OpTruncate:
		return "truncate"
	}
	return fmt.Sprintf("op(%d)", uint8(t))
}

// Entry is a decoded operational-log record.
type Entry struct {
	Seq  uint64
	Type EntryType
	Ino  Ino
	// PIno is the parent directory (namespace ops); for rename it is the
	// source directory and PIno2 the destination.
	PIno  Ino
	PIno2 Ino
	// Off is the byte offset for writes and the new size for truncates.
	Off  uint64
	Name string
	// Name2 is the rename destination name.
	Name2 string
	Data  []byte
}

const (
	entryMagic   = 0x4C4F4745 // "LOGE"
	entryHdrSize = 56
)

// EntryHeaderSize is the fixed encoded header length; a write entry's
// payload begins at this offset past the entry (writes carry no names).
const EntryHeaderSize = entryHdrSize

// WireSize returns the encoded size of the entry, 8-aligned.
func (e *Entry) WireSize() int {
	return align8(entryHdrSize + len(e.Name) + len(e.Name2) + len(e.Data))
}

func align8(n int) int { return (n + 7) &^ 7 }

// AppendWire serializes the entry with its CRC, appending the wire bytes to
// dst and returning the extended slice. Pass dst[:0] to reuse a scratch
// buffer; with enough capacity the call does not allocate. The scratch may
// hold stale bytes, so the unused header bytes and the alignment tail are
// zeroed explicitly — the wire format (and the CRC over it) pins them to
// zero.
//
//linefs:hotpath
func (e *Entry) AppendWire(dst []byte) []byte {
	size := e.WireSize()
	start := len(dst)
	dst = growWire(dst, size)
	buf := dst[start : start+size : start+size]
	binary.LittleEndian.PutUint32(buf[0:], entryMagic)
	// CRC at [4:8] filled last.
	binary.LittleEndian.PutUint64(buf[8:], e.Seq)
	buf[16] = byte(e.Type)
	buf[17] = 0
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(e.Name)))
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(e.Name2)))
	buf[22], buf[23] = 0, 0
	binary.LittleEndian.PutUint32(buf[24:], uint32(e.Ino))
	binary.LittleEndian.PutUint32(buf[28:], uint32(e.PIno))
	binary.LittleEndian.PutUint32(buf[32:], uint32(e.PIno2))
	binary.LittleEndian.PutUint32(buf[36:], 0)
	binary.LittleEndian.PutUint64(buf[40:], e.Off)
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(e.Data)))
	binary.LittleEndian.PutUint32(buf[52:], 0)
	p := entryHdrSize
	p += copy(buf[p:], e.Name)
	p += copy(buf[p:], e.Name2)
	p += copy(buf[p:], e.Data)
	for ; p < size; p++ {
		buf[p] = 0
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return dst
}

// growWire extends b by n bytes (contents unspecified), reallocating only
// when capacity is insufficient.
func growWire(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*cap(b)+n)
	copy(nb, b)
	return nb
}

// Decode errors.
var (
	ErrBadMagic = fmt.Errorf("fs: log entry bad magic")
	ErrBadCRC   = fmt.Errorf("fs: log entry CRC mismatch")
	ErrShort    = fmt.Errorf("fs: log entry truncated")
	// ErrNonCanonical rejects an entry whose CRC holds but which sets bytes
	// the format pins to zero (reserved header bytes, alignment tail).
	// AppendWire never writes one; a LibFS that is not ours could.
	ErrNonCanonical = fmt.Errorf("fs: log entry sets reserved bytes")
)

// readEntry is the one reader of the entry wire format. It frames the entry
// at the head of buf — header present, magic, declared length inside buf,
// CRC, and every byte AppendWire pins to zero still zero — and returns its
// wire size; with e non-nil it also fills e, whose Data borrows buf. The
// decoder (DecodeEntryInto) and the replication ingress gate (VerifyWire)
// both stand on it, so they accept exactly the same frames: the ones
// AppendWire writes.
//
//linefs:hotpath
func readEntry(e *Entry, buf []byte) (int, error) {
	if len(buf) < entryHdrSize {
		return 0, ErrShort
	}
	if binary.LittleEndian.Uint32(buf[0:]) != entryMagic {
		return 0, ErrBadMagic
	}
	nameLen := int(binary.LittleEndian.Uint16(buf[18:]))
	name2Len := int(binary.LittleEndian.Uint16(buf[20:]))
	// Summed in 64 bits: a declared 4 GiB payload must not wrap a 32-bit int
	// into a size that fits.
	declared := int64(entryHdrSize+nameLen+name2Len) + int64(binary.LittleEndian.Uint32(buf[48:]))
	if (declared+7)&^7 > int64(len(buf)) {
		return 0, ErrShort
	}
	used := int(declared)
	size := align8(used)
	if crc32.ChecksumIEEE(buf[8:size]) != binary.LittleEndian.Uint32(buf[4:]) {
		return 0, ErrBadCRC
	}
	if buf[17]|buf[22]|buf[23] != 0 ||
		binary.LittleEndian.Uint32(buf[36:]) != 0 || binary.LittleEndian.Uint32(buf[52:]) != 0 {
		return 0, ErrNonCanonical
	}
	for _, b := range buf[used:size] {
		if b != 0 {
			return 0, ErrNonCanonical
		}
	}
	if e == nil {
		return size, nil
	}
	*e = Entry{
		Seq:   binary.LittleEndian.Uint64(buf[8:]),
		Type:  EntryType(buf[16]),
		Ino:   Ino(binary.LittleEndian.Uint32(buf[24:])),
		PIno:  Ino(binary.LittleEndian.Uint32(buf[28:])),
		PIno2: Ino(binary.LittleEndian.Uint32(buf[32:])),
		Off:   binary.LittleEndian.Uint64(buf[40:]),
	}
	p := entryHdrSize
	//lint:allow hotalloc names must outlive buf; write entries carry none, so steady state is alloc-free
	e.Name = string(buf[p : p+nameLen])
	p += nameLen
	//lint:allow hotalloc names must outlive buf; write entries carry none, so steady state is alloc-free
	e.Name2 = string(buf[p : p+name2Len])
	p += name2Len
	e.Data = buf[p:used:used]
	return size, nil
}

// DecodeEntryInto parses one entry from buf into e, returning its wire
// size. The entry's Data borrows buf's storage — no copy — so the caller
// must not retain e.Data beyond buf's lifetime and must not mutate buf
// while the entry is live (the scratch-buffer ownership rules are in
// DESIGN.md §9). For write entries (no names) a steady-state call does not
// allocate.
//
//linefs:hotpath
func DecodeEntryInto(e *Entry, buf []byte) (int, error) { return readEntry(e, buf) }

// VerifyWire scans raw as a contiguous sequence of encoded log entries and
// checks each one's framing without materializing entries. It is the
// replication ingress integrity gate: a replica must reject a chunk whose
// payload was corrupted in flight before persisting or acknowledging it, or
// an fsync-acked range becomes unreadable at publication time.
//
// Pure codec work with no simulation cost: the bytes were already paid for
// by the transfer, and the per-byte scan cost is charged by the caller's
// validation accounting.
//
//linefs:hotpath
func VerifyWire(raw []byte) error {
	for off := 0; off < len(raw); {
		n, err := readEntry(nil, raw[off:])
		if err != nil {
			return err
		}
		off += n
	}
	return nil
}

// LogArea is a client-private operational log: a ring of entries in a PM
// window with a persisted header. Logical offsets grow monotonically; the
// physical position is logical modulo capacity. The header is persisted
// after the entry bytes, giving prefix crash consistency: a crash exposes a
// clean prefix of appended entries.
type LogArea struct {
	LogView

	head uint64 // next append offset (logical)
	tail uint64 // oldest unreclaimed offset (logical)
	seq  uint64 // next entry sequence number

	// wireBuf and hdrBuf are encode scratch reused across Append and
	// header writes. Appends to one LogArea are serialized by construction
	// (head/seq updates already assume it), so a single scratch suffices.
	wireBuf []byte
	hdrBuf  [logHdrSize]byte
}

const (
	logMagic   = 0x4C4F4741 // "LOGA"
	logHdrSize = 40
)

// NewLogArea formats a log ring at [base, base+size) of pm.
func NewLogArea(pm *hw.PM, base, size int64) *LogArea {
	if size <= 2*BlockSize {
		panic("fs: log area too small")
	}
	l := &LogArea{LogView: newLogView(base, size)}
	l.writeHeader(NoCostCtx(pm))
	return l
}

// OpenLogArea mounts an existing log ring (e.g. after a crash), trusting
// the persisted header, which is updated only after entry bytes persist.
func OpenLogArea(ctx *Ctx, base, size int64) (*LogArea, error) {
	l := &LogArea{LogView: newLogView(base, size)}
	buf := make([]byte, logHdrSize)
	ctx.Read(base, buf)
	if binary.LittleEndian.Uint32(buf[0:]) != logMagic {
		return nil, fmt.Errorf("fs: bad log header magic")
	}
	l.head = binary.LittleEndian.Uint64(buf[8:])
	l.tail = binary.LittleEndian.Uint64(buf[16:])
	l.seq = binary.LittleEndian.Uint64(buf[24:])
	return l, nil
}

func (l *LogArea) writeHeader(c *Ctx) {
	buf := l.hdrBuf[:]
	binary.LittleEndian.PutUint32(buf[0:], logMagic)
	binary.LittleEndian.PutUint64(buf[8:], l.head)
	binary.LittleEndian.PutUint64(buf[16:], l.tail)
	binary.LittleEndian.PutUint64(buf[24:], l.seq)
	c.Write(l.base, buf)
}

// Head returns the next append offset.
func (l *LogArea) Head() uint64 { return l.head }

// Tail returns the oldest unreclaimed offset.
func (l *LogArea) Tail() uint64 { return l.tail }

// Used returns bytes between tail and head.
func (l *LogArea) Used() int64 { return int64(l.head - l.tail) }

// Free returns remaining append capacity.
func (l *LogArea) Free() int64 { return l.cap - l.Used() }

// Cap returns the ring capacity.
func (l *LogArea) Cap() int64 { return l.cap }

// rawWrite stores bytes at a logical offset.
func (l *LogArea) rawWrite(c *Ctx, logical uint64, data []byte) {
	for len(data) > 0 {
		seg := l.SegmentAt(logical, len(data))
		c.Write(seg.PhysOff, data[:seg.Len])
		logical += uint64(seg.Len)
		data = data[seg.Len:]
	}
}

// ErrLogFull reports that the ring has no room; the client must wait for
// publication to reclaim entries.
var ErrLogFull = fmt.Errorf("fs: log full")

// Append encodes e (assigning its sequence number), persists it, then
// persists the advanced header. It returns the entry's logical offset.
func (l *LogArea) Append(c *Ctx, e *Entry) (uint64, error) {
	e.Seq = l.seq
	l.wireBuf = poisonScratch(l.wireBuf)
	l.wireBuf = e.AppendWire(l.wireBuf[:0])
	wire := l.wireBuf
	if int64(len(wire)) > l.Free() {
		return 0, ErrLogFull
	}
	at := l.head
	l.rawWrite(c, at, wire)
	l.head += uint64(len(wire))
	l.seq++
	l.writeHeader(c)
	return at, nil
}

// ReadRawInto reads the raw bytes at a logical offset into dst: a chunk for
// transfer, a range to decode, or unpublished data the fast-read path
// resolves through the block index.
//
//linefs:hotpath
func (l *LogArea) ReadRawInto(c *Ctx, from uint64, dst []byte) {
	for len(dst) > 0 {
		seg := l.SegmentAt(from, len(dst))
		c.Read(seg.PhysOff, dst[:seg.Len])
		from += uint64(seg.Len)
		dst = dst[seg.Len:]
	}
}

// MirrorRaw appends raw chunk bytes (received from a replication
// predecessor) at the same logical offset and advances the head. Offsets
// must be contiguous with the current head.
func (l *LogArea) MirrorRaw(c *Ctx, at uint64, data []byte) error {
	if at != l.head {
		return fmt.Errorf("fs: mirror gap: at=%d head=%d", at, l.head)
	}
	l.rawWrite(c, at, data)
	return l.AdvanceHead(c, at, len(data))
}

// RingSeg is a physically-contiguous piece of a logical log range.
type RingSeg struct {
	PhysOff int64
	Len     int
}

// LogView is the geometry of a log ring at [base, base+size) of a machine's
// PM: a header block, then cap bytes of entries addressed by logical offset
// modulo cap. A LogArea holds the view of its own ring.
type LogView struct {
	base, cap int64
}

// newLogView describes a log ring at [base, base+size).
func newLogView(base, size int64) LogView {
	return LogView{base: base, cap: size - BlockSize}
}

// SegmentAt is the ring's one wrap rule: the logical range [at, at+n)
// begins with the physical piece it returns, which stops at the ring end at
// the latest; the rest of the range, if any, is found by asking again at
// at+Len. Every ring read and write, and every copy engine addressing the
// ring's PM directly (a mirror's persist), walks a range this way — two
// pieces at most for a range that fits the ring — and the piece comes back
// by value, so none allocates.
func (v LogView) SegmentAt(at uint64, n int) RingSeg {
	start := int64(at % uint64(v.cap))
	return RingSeg{PhysOff: v.base + BlockSize + start, Len: min(n, int(v.cap-start))}
}

// AdvanceHead moves the head to cover externally-placed bytes (the data
// was written by a DMA engine) and persists the header.
func (l *LogArea) AdvanceHead(c *Ctx, at uint64, n int) error {
	if at != l.head {
		return fmt.Errorf("fs: advance gap: at=%d head=%d", at, l.head)
	}
	l.head += uint64(n)
	l.writeHeader(c)
	return nil
}

// readScratch reads the raw bytes of [from, to) into scratch, grown as
// needed: at least doubled, so rounds of slowly growing length reuse it. Under
// the borrow sanitizer the old scratch is poisoned and dropped first, so an
// entry still borrowing it reads poison.
func (l *LogArea) readScratch(c *Ctx, scratch []byte, from, to uint64) []byte {
	scratch = poisonScratch(scratch)
	n := int(to - from)
	if cap(scratch) < n {
		scratch = make([]byte, n, max(n, 2*cap(scratch)))
	}
	raw := scratch[:n]
	l.ReadRawInto(c, from, raw)
	return raw
}

// DecodeRangeScratch parses the entries in [from, to) out of a caller-owned
// raw buffer: the bytes are read into scratch (grown as needed) and the
// buffer is returned for reuse. Corruption yields an error positioned at the
// failing entry. The decoded entries borrow that buffer (see DecodeAll) —
// drop them before passing it back in.
func (l *LogArea) DecodeRangeScratch(c *Ctx, scratch []byte, from, to uint64) ([]*Entry, []byte, error) {
	raw := l.readScratch(c, scratch, from, to)
	entries, err := DecodeAll(raw, new(EntryList))
	//lint:allow borrowcheck the doc contract: entries borrow the scratch buffer handed back to the caller
	return entries, raw, err
}

// EntryList is the storage DecodeAll decodes into: the entries themselves
// and the list of pointers to them it returns. Its owner keeps one per
// stream of decodes, so a decode reuses both lists' room instead of
// allocating an entry per record.
type EntryList struct {
	ents []Entry
	ptrs []*Entry
}

// Reset drops every entry the list holds, keeping its room, so that no entry
// still borrows a buffer the owner hands back.
func (l *EntryList) Reset() {
	clear(l.ents[:cap(l.ents)])
	clear(l.ptrs[:cap(l.ptrs)])
	l.ents, l.ptrs = l.ents[:0], l.ptrs[:0]
}

// DecodeAll parses a concatenation of encoded entries into l, replacing what
// l held, and returns them in order; on a corrupt entry it returns the ones
// before it and an error positioned at it. Entry Data slices borrow raw's
// storage (DecodeEntryInto): callers must keep raw alive and unmutated while
// the entries are in use, and the entries are valid until the next decode
// into l.
//
//linefs:hotpath
func DecodeAll(raw []byte, l *EntryList) ([]*Entry, error) {
	l.ents = l.ents[:0]
	for off := 0; off < len(raw); {
		l.ents = append(l.ents, Entry{})
		n, err := DecodeEntryInto(&l.ents[len(l.ents)-1], raw[off:])
		if err != nil {
			l.ents = l.ents[:len(l.ents)-1]
			return l.point(), fmt.Errorf("at byte %d: %w", off, err)
		}
		off += n
	}
	return l.point(), nil
}

// point lists the addresses of l's entries. It runs once they are all in
// place, because an append while decoding may move them.
func (l *EntryList) point() []*Entry {
	l.ptrs = l.ptrs[:0]
	for i := range l.ents {
		l.ptrs = append(l.ptrs, &l.ents[i])
	}
	return l.ptrs
}

// VisitRange decodes the entries in [from, to), invoking fn on each. The
// raw bytes are read into scratch (grown as needed and returned for reuse)
// and a single Entry is reused across calls: the *Entry and its borrowed
// Data are valid only during fn. Digest-style scans use this to walk a log
// without per-entry allocation.
func (l *LogArea) VisitRange(c *Ctx, scratch []byte, from, to uint64, fn func(*Entry) error) ([]byte, error) {
	raw := l.readScratch(c, scratch, from, to)
	var e Entry
	for off := 0; off < len(raw); {
		sz, err := DecodeEntryInto(&e, raw[off:])
		if err != nil {
			return raw, fmt.Errorf("at byte %d: %w", off, err)
		}
		if err := fn(&e); err != nil {
			return raw, err
		}
		off += sz
	}
	return raw, nil
}

// ResetTo moves a mirror log's head up to at, abandoning the range below it
// (§3.6: a recovered replica re-fetches its state from a peer). The tail
// stays for a queued publication of what the log holds to Reclaim; the first
// Reclaim past at frees the abandoned range with it.
func (l *LogArea) ResetTo(c *Ctx, at uint64) {
	l.head = at
	l.writeHeader(c)
}

// Reclaim advances the tail to upto, freeing ring space after publication.
func (l *LogArea) Reclaim(c *Ctx, upto uint64) {
	if upto < l.tail || upto > l.head {
		panic(fmt.Sprintf("fs: bad reclaim %d (tail=%d head=%d)", upto, l.tail, l.head))
	}
	l.tail = upto
	l.writeHeader(c)
}
