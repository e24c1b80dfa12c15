package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// fuzzSeedFrames is the seed corpus both log-wire fuzz targets start from:
// one entry of each op type and a two-entry range, built with AppendWire, and
// one frame no AppendWire writes — a reserved byte set under a valid CRC.
func fuzzSeedFrames() [][]byte {
	entries := []*Entry{
		{Seq: 1, Type: OpWrite, Ino: 7, Off: 4096, Data: []byte("payload of odd length")},
		{Seq: 2, Type: OpCreate, Ino: 8, PIno: 1, Name: "a.txt"},
		{Seq: 3, Type: OpMkdir, Ino: 9, PIno: 1, Name: "dir"},
		{Seq: 4, Type: OpUnlink, Ino: 8, PIno: 1, Name: "a.txt"},
		{Seq: 5, Type: OpRmdir, Ino: 9, PIno: 1, Name: "dir"},
		{Seq: 6, Type: OpRename, Ino: 8, PIno: 1, PIno2: 9, Name: "a.txt", Name2: "b"},
		{Seq: 7, Type: OpTruncate, Ino: 8, Off: 12},
	}
	var frames [][]byte
	for _, e := range entries {
		frames = append(frames, e.AppendWire(nil))
	}
	frames = append(frames, entries[1].AppendWire(entries[0].AppendWire(nil)))
	return append(frames, withPinnedByteSet(entries[1].AppendWire(nil), 17))
}

// withPinnedByteSet sets byte at of a one-entry frame — a byte the format
// pins to zero — and rewrites the CRC to match.
func withPinnedByteSet(frame []byte, at int) []byte {
	frame[at] = 1
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

// addWithFlippedBit seeds f with frame as it is and with one bit flipped in
// the middle of it, each both sealed and not.
func addWithFlippedBit(f *testing.F, frame []byte) {
	flipped := bytes.Clone(frame)
	flipped[len(flipped)/2] ^= 0x10
	for _, seal := range []bool{false, true} {
		f.Add(frame, seal)
		f.Add(flipped, seal)
	}
}

// sealFrames plays a sender that follows the format over whatever bytes the
// fuzzer made: walking the frames by their declared sizes, it zeroes what the
// format pins to zero (reserved header bytes, alignment tail) and writes each
// frame's CRC, so mutations reach the decoder's body instead of all dying at
// the CRC gate. It stops at the first frame that does not fit.
func sealFrames(raw []byte) {
	for len(raw) >= entryHdrSize {
		used, size := frameSpan(raw)
		if size > len(raw) {
			return
		}
		buf := raw[:size]
		buf[17], buf[22], buf[23] = 0, 0, 0
		clear(buf[36:40])
		clear(buf[52:56])
		clear(buf[used:])
		binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
		raw = raw[size:]
	}
}

// frameSpan reads a frame header's declared lengths: the bytes in use and the
// 8-aligned wire size.
func frameSpan(buf []byte) (used, size int) {
	used = entryHdrSize + int(binary.LittleEndian.Uint16(buf[18:])) +
		int(binary.LittleEndian.Uint16(buf[20:])) + int(binary.LittleEndian.Uint32(buf[48:]))
	return used, align8(used)
}

// checkAccepted is what both targets require of a frame the decoder took: it
// is exactly what AppendWire writes for the decoded entry — CRC, reserved
// bytes and alignment tail included.
func checkAccepted(t *testing.T, e *Entry, frame []byte) {
	t.Helper()
	if !bytes.Equal(e.AppendWire(nil), frame) {
		t.Fatalf("accepted entry %+v does not re-encode to its %d wire bytes % x", e, len(frame), frame)
	}
}

// FuzzDecodeEntryInto drives the log entry decoder with arbitrary bytes: it
// must never panic, and every entry it accepts re-encodes to the bytes it
// came from — so it accepts no frame AppendWire would not have written.
func FuzzDecodeEntryInto(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		addWithFlippedBit(f, frame)
	}
	f.Fuzz(func(t *testing.T, buf []byte, seal bool) {
		if seal {
			sealFrames(buf)
		}
		var e Entry
		n, err := DecodeEntryInto(&e, buf)
		if err != nil {
			if n != 0 {
				t.Fatalf("rejected with %v but consumed %d bytes", err, n)
			}
			return
		}
		if n < entryHdrSize || n > len(buf) || n%8 != 0 {
			t.Fatalf("accepted a frame of %d bytes out of %d", n, len(buf))
		}
		checkAccepted(t, &e, buf[:n])
	})
}

// FuzzVerifyWire drives the replication ingress gate with arbitrary ranges:
// it must never panic, must agree with the decoder (DecodeAll) on what is
// acceptable and why not, and a range it passes re-encodes, entry by entry,
// to its own bytes.
func FuzzVerifyWire(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		addWithFlippedBit(f, frame)
	}
	f.Fuzz(func(t *testing.T, raw []byte, seal bool) {
		if seal {
			sealFrames(raw)
		}
		verr := VerifyWire(raw)
		entries, derr := DecodeAll(raw, new(EntryList))
		if verr != nil {
			if !errors.Is(derr, verr) {
				t.Fatalf("VerifyWire says %v, DecodeAll says %v", verr, derr)
			}
			return
		}
		if derr != nil {
			t.Fatalf("VerifyWire passed a range DecodeAll rejects: %v", derr)
		}
		off := 0
		for _, e := range entries {
			checkAccepted(t, e, raw[off:off+e.WireSize()])
			off += e.WireSize()
		}
		if off != len(raw) {
			t.Fatalf("passed range decodes to %d of its %d bytes", off, len(raw))
		}
	})
}
