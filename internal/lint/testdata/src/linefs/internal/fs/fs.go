// Package fs is a stub of the wire-format surface for wirecheck tests: same
// package-path suffix and function names as the real internal/fs.
package fs

// Ctx is the stub access context.
type Ctx struct{}

// Entry is the stub log entry. Data borrows the decode buffer; Name and
// Seq are owned.
type Entry struct {
	Seq  uint64
	Name string
	Data []byte
}

// AppendWire serializes the entry onto dst and returns the grown buffer.
//
//linefs:hotpath
func (e *Entry) AppendWire(dst []byte) []byte { return dst }

// LogArea is the stub log ring.
type LogArea struct{}

// Append appends an entry.
func (l *LogArea) Append(c *Ctx, e *Entry) (uint64, error) { return 0, nil }

// MirrorRaw appends raw replicated bytes.
func (l *LogArea) MirrorRaw(c *Ctx, at uint64, data []byte) error { return nil }

// AdvanceHead covers externally-placed bytes.
func (l *LogArea) AdvanceHead(c *Ctx, at uint64, n int) error { return nil }

// DecodeRangeScratch parses entries in a range into a reusable buffer.
func (l *LogArea) DecodeRangeScratch(c *Ctx, scratch []byte, from, to uint64) ([]*Entry, []byte, error) {
	return nil, nil, nil
}

// VisitRange streams entries in a range through fn.
func (l *LogArea) VisitRange(c *Ctx, scratch []byte, from, to uint64, fn func(*Entry) error) ([]byte, error) {
	return nil, nil
}

// Tail returns the oldest offset.
func (l *LogArea) Tail() uint64 { return 0 }

// Head returns the next append offset.
func (l *LogArea) Head() uint64 { return 0 }

// DecodeEntryInto parses one entry into e, borrowing from buf.
//
//linefs:hotpath
func DecodeEntryInto(e *Entry, buf []byte) (int, error) { return 0, nil }

// DecodeAll parses concatenated entries.
func DecodeAll(raw []byte) ([]*Entry, error) { return nil, nil }

// OpenLogArea mounts an existing ring.
func OpenLogArea(ctx *Ctx, base, size int64) (*LogArea, error) { return nil, nil }

// VerifyWire scans raw entries, checking magic and CRC.
func VerifyWire(raw []byte) error { return nil }
