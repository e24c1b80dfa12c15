package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// seedEncode is the seed (PR 0) entry encoder, kept verbatim as the oracle
// proving AppendWire produces byte-identical wire even from dirty scratch.
func seedEncode(e *Entry) []byte {
	buf := make([]byte, e.WireSize())
	binary.LittleEndian.PutUint32(buf[0:], entryMagic)
	binary.LittleEndian.PutUint64(buf[8:], e.Seq)
	buf[16] = byte(e.Type)
	binary.LittleEndian.PutUint16(buf[18:], uint16(len(e.Name)))
	binary.LittleEndian.PutUint16(buf[20:], uint16(len(e.Name2)))
	binary.LittleEndian.PutUint32(buf[24:], uint32(e.Ino))
	binary.LittleEndian.PutUint32(buf[28:], uint32(e.PIno))
	binary.LittleEndian.PutUint32(buf[32:], uint32(e.PIno2))
	binary.LittleEndian.PutUint64(buf[40:], e.Off)
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(e.Data)))
	p := entryHdrSize
	copy(buf[p:], e.Name)
	p += len(e.Name)
	copy(buf[p:], e.Name2)
	p += len(e.Name2)
	copy(buf[p:], e.Data)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// randomEntry generates an entry spanning the codec's shapes: writes with
// payloads, namespace ops with one or two names, odd lengths exercising the
// 8-byte alignment tail.
func randomEntry(rng *rand.Rand) *Entry {
	e := &Entry{
		Seq:  rng.Uint64(),
		Ino:  Ino(rng.Uint32()),
		PIno: Ino(rng.Uint32()),
		Off:  rng.Uint64(),
	}
	switch rng.Intn(4) {
	case 0: // write
		e.Type = OpWrite
		e.Data = make([]byte, rng.Intn(300))
		rng.Read(e.Data)
	case 1: // create/mkdir/unlink/rmdir
		e.Type = []EntryType{OpCreate, OpMkdir, OpUnlink, OpRmdir}[rng.Intn(4)]
		e.Name = fmt.Sprintf("name-%d", rng.Intn(1<<20))[:1+rng.Intn(8)]
	case 2: // rename
		e.Type = OpRename
		e.PIno2 = Ino(rng.Uint32())
		e.Name = fmt.Sprintf("src-%d", rng.Intn(1<<20))
		e.Name2 = fmt.Sprintf("dst-%d", rng.Intn(1<<20))
	case 3: // truncate
		e.Type = OpTruncate
	}
	return e
}

// entriesEqual compares all decoded fields.
func entriesEqual(a, b *Entry) bool {
	return a.Seq == b.Seq && a.Type == b.Type && a.Ino == b.Ino &&
		a.PIno == b.PIno && a.PIno2 == b.PIno2 && a.Off == b.Off &&
		a.Name == b.Name && a.Name2 == b.Name2 && bytes.Equal(a.Data, b.Data)
}

// TestAppendWireMatchesSeedEncode proves the scratch encoder's wire format
// didn't move: appending into a dirty scratch must produce bytes identical
// to the seed encoder's zero-fresh buffer, for random entries.
func TestAppendWireMatchesSeedEncode(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	scratch := bytes.Repeat([]byte{0xFF}, 4096) // dirty on purpose
	for i := 0; i < 500; i++ {
		e := randomEntry(rng)
		want := seedEncode(e)
		got := e.AppendWire(scratch[:0])
		if !bytes.Equal(got, want) {
			t.Fatalf("entry %d (%v): AppendWire differs from seed encoder", i, e.Type)
		}
	}
}

// TestLogCodecRoundTripProperty round-trips random entries through the
// scratch APIs: AppendWire → DecodeEntryInto must restore every field, both
// standalone and concatenated mid-stream.
func TestLogCodecRoundTripProperty(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var entries []*Entry
		var stream []byte
		for i := 0; i < 30; i++ {
			e := randomEntry(rng)
			entries = append(entries, e)
			stream = e.AppendWire(stream)
		}
		// Decode the concatenation with the borrowing decoder.
		var got Entry
		off := 0
		for i, want := range entries {
			n, err := DecodeEntryInto(&got, stream[off:])
			if err != nil {
				t.Fatalf("seed %d entry %d: %v", seed, i, err)
			}
			if !entriesEqual(&got, want) {
				t.Fatalf("seed %d entry %d: round trip mismatch: %+v != %+v", seed, i, got, *want)
			}
			if n != want.WireSize() {
				t.Fatalf("seed %d entry %d: size %d != WireSize %d", seed, i, n, want.WireSize())
			}
			off += n
		}
		if off != len(stream) {
			t.Fatalf("seed %d: %d bytes undecoded", seed, len(stream)-off)
		}
		// DecodeAll must agree entry by entry.
		all, err := DecodeAll(stream)
		if err != nil || len(all) != len(entries) {
			t.Fatalf("seed %d: DecodeAll: %d entries, err=%v", seed, len(all), err)
		}
		for i := range all {
			if !entriesEqual(all[i], entries[i]) {
				t.Fatalf("seed %d: DecodeAll entry %d mismatch", seed, i)
			}
		}
	}
}

// TestLogCodecCorruptionDetected flips a single bit anywhere in an encoded
// entry and requires the decoder to reject it: the CRC covers everything
// past the checksum field, and the magic and CRC fields protect themselves.
func TestLogCodecCorruptionDetected(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var e Entry
	for i := 0; i < 50; i++ {
		wire := randomEntry(rng).AppendWire(nil)
		for j := 0; j < 40; j++ {
			mut := append([]byte(nil), wire...)
			mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			if bytes.Equal(mut, wire) {
				continue
			}
			if _, err := DecodeEntryInto(&e, mut); err == nil {
				t.Fatalf("entry %d: bit flip not detected", i)
			}
		}
		// Truncations at every boundary must error, never mis-parse.
		for cut := 0; cut < len(wire); cut += 7 {
			if _, err := DecodeEntryInto(&e, wire[:cut]); err == nil {
				t.Fatalf("entry %d: truncation to %d accepted", i, cut)
			}
		}
	}
}

// TestNonCanonicalFrameRejected sets, one at a time, every byte the format
// pins to zero — reserved header bytes and the alignment tail — under a
// matching CRC: the decoder and the ingress gate must both refuse the frame
// as non-canonical, at its position in a range.
func TestNonCanonicalFrameRejected(t *testing.T) {
	t.Parallel()
	e := &Entry{Seq: 3, Type: OpCreate, Ino: 4, PIno: 1, Name: "abc"} // 59 bytes in a 64-byte frame
	good := e.AppendWire(nil)
	pinned := []int{17, 22, 23, 36, 37, 38, 39, 52, 53, 54, 55, 59, 60, 61, 62, 63}
	for _, at := range pinned {
		bad := withPinnedByteSet(e.AppendWire(nil), at)
		var got Entry
		if n, err := DecodeEntryInto(&got, bad); err != ErrNonCanonical || n != 0 {
			t.Errorf("byte %d set: DecodeEntryInto = %d, %v, want ErrNonCanonical", at, n, err)
		}
		ranged := append(bytes.Clone(good), bad...)
		if err := VerifyWire(ranged); err != ErrNonCanonical {
			t.Errorf("byte %d set: VerifyWire = %v, want ErrNonCanonical", at, err)
		}
		if ents, err := DecodeAll(ranged); !errors.Is(err, ErrNonCanonical) || len(ents) != 1 {
			t.Errorf("byte %d set: DecodeAll = %d entries, %v, want the one before and ErrNonCanonical", at, len(ents), err)
		}
	}
}

// TestDecodeEntryIntoBorrowsData pins the zero-copy contract: the decoded
// Data must alias the input buffer.
func TestDecodeEntryIntoBorrowsData(t *testing.T) {
	t.Parallel()
	src := &Entry{Type: OpWrite, Ino: 9, Off: 512, Data: []byte("payload-bytes")}
	wire := src.AppendWire(nil)
	var e Entry
	if _, err := DecodeEntryInto(&e, wire); err != nil {
		t.Fatal(err)
	}
	wire[entryHdrSize] ^= 0xFF // mutate the payload region in place
	if e.Data[0] == 'p' {
		t.Fatal("DecodeEntryInto copied Data; want a borrowed slice")
	}
}

// TestLogCodecSteadyStateAllocFree is the 0 allocs/op gate for the scratch
// encode and borrowing decode of write entries.
func TestLogCodecSteadyStateAllocFree(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	src := &Entry{Seq: 5, Type: OpWrite, Ino: 3, Off: 8192, Data: data}
	scratch := src.AppendWire(nil)
	var e Entry
	if a := testing.AllocsPerRun(10, func() {
		scratch = src.AppendWire(scratch[:0])
	}); a != 0 {
		t.Errorf("AppendWire steady state: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() {
		if _, err := DecodeEntryInto(&e, scratch); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("DecodeEntryInto steady state: %v allocs/op, want 0", a)
	}
}

func BenchmarkAppendWire(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	e := &Entry{Seq: 5, Type: OpWrite, Ino: 3, Off: 8192, Data: data}
	scratch := e.AppendWire(nil)
	b.SetBytes(int64(len(scratch)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = e.AppendWire(scratch[:0])
	}
}

func BenchmarkDecodeEntryInto(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	wire := (&Entry{Seq: 5, Type: OpWrite, Ino: 3, Off: 8192, Data: data}).AppendWire(nil)
	var e Entry
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeEntryInto(&e, wire); err != nil {
			b.Fatal(err)
		}
	}
}
