package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"linefs/internal/compress"
	"linefs/internal/fs"
)

// TestDataBenchAcceptance pins the 0 allocs/op contract of the data plane as
// a compressed chunk crosses it: a client log segment of wire entries is
// LZW-coded, decoded back into a reused buffer, and parsed by fs.DecodeAll
// into a reused fs.EntryList, each step handing its output to the next as a
// mirror does. Each codec has a gate of its own in its package (compress's
// TestCompressIntoSteadyStateAllocFree, fs's TestLogCodecSteadyStateAllocFree);
// this one holds them composed.
//
// Not parallel: testing.AllocsPerRun reads process-wide MemStats.
func TestDataBenchAcceptance(t *testing.T) {
	if fs.BorrowSanitizerEnabled() || compress.BorrowSanitizerEnabled() {
		t.Skip("the borrow sanitizer forces a fresh scratch per call; the 0 allocs/op gate cannot hold")
	}
	// A segment of write entries as the compress stage sees it:
	// incompressible pages, patterned records and mostly-zero pages. No
	// namespace op: decoding one allocates its name.
	rng := rand.New(rand.NewSource(3))
	var seg []byte
	n := 0
	for ; len(seg) < 256<<10; n++ {
		e := fs.Entry{Seq: uint64(n + 1), Type: fs.OpWrite, Ino: fs.Ino(1 + rng.Intn(8)), Off: uint64(rng.Intn(1 << 20))}
		switch rng.Intn(3) {
		case 0:
			e.Data = make([]byte, 1+rng.Intn(4096))
			rng.Read(e.Data)
		case 1:
			rec := fmt.Sprintf("inode=%06d off=%06d len=%05d ", rng.Intn(512), rng.Intn(1<<20), rng.Intn(65536))
			e.Data = bytes.Repeat([]byte(rec), 1+rng.Intn(64))
		default:
			e.Data = make([]byte, 1+rng.Intn(4096))
			e.Data[rng.Intn(len(e.Data))] = byte(1 + rng.Intn(255))
		}
		seg = e.AppendWire(seg)
	}

	enc, dec := compress.NewEncoder(), compress.NewDecoder()
	var list fs.EntryList
	var stream, raw []byte
	chunk := func() []*fs.Entry {
		stream = enc.CompressInto(stream[:0], seg)
		var err error
		if raw, err = dec.DecompressInto(raw[:0], stream); err != nil {
			t.Fatal(err)
		}
		ents, err := fs.DecodeAll(raw, &list)
		if err != nil {
			t.Fatal(err)
		}
		return ents
	}
	if ents := chunk(); !bytes.Equal(raw, seg) || len(ents) != n {
		t.Fatalf("round trip: %d bytes back of %d, %d entries of %d", len(raw), len(seg), len(ents), n)
	}
	if len(stream) >= len(seg) {
		t.Fatalf("segment did not compress: %d >= %d bytes", len(stream), len(seg))
	}
	if a := testing.AllocsPerRun(10, func() { chunk() }); a != 0 {
		t.Errorf("code, decode and DecodeAll steady state: %v allocs/op, want 0", a)
	}
}
