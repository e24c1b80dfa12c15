package fs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// checkSplit walks [at, at+n) with SegmentAt and compares every byte with the
// model of the ring: logical byte at+i lives at the header block's end plus
// (at+i) mod cap. A range that fits the ring is at most two pieces.
func checkSplit(t *testing.T, base, ringCap int64, at uint64, n int) {
	t.Helper()
	v := newLogView(base, BlockSize+ringCap)
	pieces := 0
	for i := 0; i < n; pieces++ {
		seg := v.SegmentAt(at+uint64(i), n-i)
		if seg.Len <= 0 || seg.Len > n-i {
			t.Fatalf("cap=%d at=%d n=%d: piece %d at byte %d is %+v", ringCap, at, n, pieces, i, seg)
		}
		for j := 0; j < seg.Len; j, i = j+1, i+1 {
			want := base + BlockSize + int64((at+uint64(i))%uint64(ringCap))
			if got := seg.PhysOff + int64(j); got != want {
				t.Fatalf("cap=%d at=%d n=%d: byte %d at %d, model says %d", ringCap, at, n, i, got, want)
			}
		}
	}
	if most := (int64(n)+ringCap-1)/ringCap + 1; int64(pieces) > most || (int64(n) <= ringCap && pieces > 2) {
		t.Fatalf("cap=%d at=%d n=%d: %d pieces", ringCap, at, n, pieces)
	}
}

// TestSegmentAtMatchesModuloModel is the property test of the one wrap rule,
// over random geometry and over the edges by name.
func TestSegmentAtMatchesModuloModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		ringCap := int64(1 + rng.Intn(300))
		at := uint64(rng.Int63n(20 * ringCap))
		checkSplit(t, int64(rng.Intn(4))*BlockSize, ringCap, at, rng.Intn(int(ringCap)+1))
	}
	const ringCap = 64
	for lap := uint64(0); lap < 3; lap++ {
		checkSplit(t, BlockSize, ringCap, lap*ringCap+17, ringCap) // the whole ring, from its middle
		checkSplit(t, BlockSize, ringCap, lap*ringCap, ringCap)    // the whole ring, from its start
		checkSplit(t, BlockSize, ringCap, lap*ringCap+40, 24)      // ends exactly at the ring end
		checkSplit(t, BlockSize, ringCap, lap*ringCap+64, 10)      // starts exactly at the ring end
		checkSplit(t, BlockSize, ringCap, lap*ringCap+63, 2)       // one byte either side of it
		checkSplit(t, BlockSize, ringCap, lap*ringCap+5, 0)
		// Longer than the ring: a reader that has been lapped (Assise's mirror
		// digest can be) reads the ring round again rather than out of it.
		checkSplit(t, BlockSize, ringCap, lap*ringCap+17, 2*ringCap+9)
	}
}

// wrapLogEntry makes the i-th entry of a FuzzVisitRangeWrap log out of one
// fuzz byte: mostly writes of 0..1270 payload bytes, some namespace ops.
func wrapLogEntry(b byte, i int) *Entry {
	switch b % 5 {
	case 0:
		return &Entry{Type: OpCreate, Ino: Ino(i), PIno: 1, Name: fmt.Sprintf("f%d", b)}
	case 1:
		return &Entry{Type: OpRename, Ino: Ino(i), PIno: 1, PIno2: 2, Name: "from", Name2: fmt.Sprintf("to-%d", b)}
	}
	return &Entry{Type: OpWrite, Ino: Ino(i), Off: uint64(b) << 12, Data: bytes.Repeat([]byte{b}, int(b)*5)}
}

// FuzzVisitRangeWrap drives the range readers over a ring whose live range
// wraps: entries made from the fuzz bytes are appended, and the oldest half
// reclaimed whenever the ring fills, until [tail, head) runs past the ring
// end. VisitRange, DecodeRangeScratch, and DecodeAll over the linearised
// bytes must then yield exactly the live entries, and with one byte of the
// live range flipped in PM each must yield the entries before the damaged
// one and an error positioned at it. The seed corpus is
// testdata/fuzz/FuzzVisitRangeWrap.
func FuzzVisitRangeWrap(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, flip uint16) {
		l, c := newTestLog(t, 3*BlockSize)
		type placed struct {
			at uint64
			e  *Entry
		}
		var live []placed
		appendOne := func(e *Entry) {
			at, err := l.Append(c, e)
			for err == ErrLogFull {
				live = live[(len(live)+1)/2:]
				if len(live) == 0 {
					l.Reclaim(c, l.Head())
				} else {
					l.Reclaim(c, live[0].at)
				}
				at, err = l.Append(c, e)
			}
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, placed{at, e})
		}
		wraps := func() bool {
			return l.Head() > l.Tail() && l.Tail()/uint64(l.Cap()) != (l.Head()-1)/uint64(l.Cap())
		}
		for i, b := range ops {
			appendOne(wrapLogEntry(b, i))
		}
		for i := len(ops); !wraps(); i++ {
			appendOne(wrapLogEntry(byte(37*i+2), i))
		}

		same := func(who string, got []*Entry, err error, want []placed) {
			t.Helper()
			if err != nil && len(want) == len(live) {
				t.Fatalf("%s: %v", who, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d entries, want %d", who, len(got), len(want))
			}
			for i := range got {
				if !entriesEqual(got[i], want[i].e) {
					t.Fatalf("%s: entry %d is %+v, want %+v", who, i, got[i], want[i].e)
				}
			}
		}
		// readAll runs the three readers and requires each to yield want; it
		// returns their errors.
		readAll := func(want []placed) [3]error {
			var errs [3]error
			var visited []*Entry
			_, errs[0] = l.VisitRange(c, nil, l.Tail(), l.Head(), func(e *Entry) error {
				cp := *e
				cp.Data = bytes.Clone(e.Data)
				visited = append(visited, &cp)
				return nil
			})
			same("VisitRange", visited, errs[0], want)
			ranged, _, err := l.DecodeRangeScratch(c, nil, l.Tail(), l.Head())
			errs[1] = err
			same("DecodeRangeScratch", ranged, err, want)
			raw := make([]byte, l.Used())
			l.ReadRawInto(c, l.Tail(), raw)
			all, err := DecodeAll(raw, new(EntryList))
			errs[2] = err
			same("DecodeAll", all, err, want)
			return errs
		}
		readAll(live)

		// Flip one bit of one live byte where it lies in PM.
		pos := l.Tail() + uint64(flip)%uint64(l.Used())
		hit := 0
		for hit+1 < len(live) && live[hit+1].at <= pos {
			hit++
		}
		at := l.SegmentAt(pos, 1).PhysOff
		var one [1]byte
		c.Read(at, one[:])
		one[0] ^= 1 << (flip >> 13)
		c.Write(at, one[:])
		where := fmt.Sprintf("at byte %d:", live[hit].at-l.Tail())
		errs := readAll(live[:hit])
		for i, err := range errs {
			if err == nil || !strings.HasPrefix(err.Error(), where) {
				t.Fatalf("reader %d: flipped byte %d of the range: error %v, want one %s", i, pos-l.Tail(), err, where)
			}
			if !errors.Is(err, errors.Unwrap(errs[0])) {
				t.Fatalf("readers disagree on the damage: %v vs %v", errs[0], err)
			}
		}
	})
}
