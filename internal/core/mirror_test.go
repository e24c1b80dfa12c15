package core

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/sim"
)

// wireEntries encodes write entries (sequence numbers from firstSeq) until
// the stream is at least size bytes: a valid chunk's worth of log.
func wireEntries(firstSeq uint64, size int) []byte {
	rec := bytes.Repeat([]byte("mirror framing gate "), 16)
	var raw []byte
	for seq := firstSeq; len(raw) < size; seq++ {
		e := fs.Entry{Seq: seq, Type: fs.OpWrite, Ino: 3, Off: uint64(len(raw)), Data: rec}
		raw = e.AppendWire(raw)
	}
	return raw
}

// TestMirrorFramingGates feeds the mirror's one data-frame handler every
// way a replChunkBatch can be malformed. Each must be rejected whole: no
// ack to the primary, nothing forwarded, the mirror head unmoved, and the
// receive buffer back in the pool. A well-formed frame built from the same
// parts then goes through, so the rejections are the gates' doing.
func TestMirrorFramingGates(t *testing.T) {
	t.Parallel()
	raw := wireEntries(1, 8<<10)
	n := uint64(len(raw))
	zipped := compress.Compress(raw)
	if len(zipped) >= len(raw) {
		t.Fatalf("corpus did not compress (%d >= %d)", len(zipped), len(raw))
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xA5

	one := func(bc batchChunk) *replChunkBatch {
		return &replChunkBatch{From: bc.From, To: bc.To, Chunks: []batchChunk{bc}}
	}
	good := batchChunk{From: 0, To: n, Payload: raw, RawLen: len(raw)}
	cases := []struct {
		name   string
		rb     *replChunkBatch
		crcBad bool
	}{
		{name: "empty frame list", rb: &replChunkBatch{}},
		{name: "From gap between frames", rb: &replChunkBatch{From: 0, To: 2 * n, Chunks: []batchChunk{
			good,
			{From: n + 8, To: 2*n + 8, Payload: raw, RawLen: len(raw)},
		}}},
		{name: "RawLen != To-From", rb: &replChunkBatch{From: 0, To: n, Chunks: []batchChunk{
			{From: 0, To: n + 8, Payload: raw, RawLen: len(raw)},
		}}},
		{name: "raw payload shorter than RawLen", rb: one(batchChunk{
			From: 0, To: n, Payload: raw[:len(raw)-8], RawLen: len(raw),
		})},
		{name: "compressed frame decodes long", rb: one(batchChunk{
			From: 0, To: n - 8, Payload: zipped, Compressed: true, RawLen: len(raw) - 8,
		})},
		{name: "compressed frame decodes short", rb: one(batchChunk{
			From: 0, To: n + 8, Payload: zipped, Compressed: true, RawLen: len(raw) + 8,
		})},
		{name: "CRC-bad raw frame", crcBad: true, rb: one(batchChunk{
			From: 0, To: n, Payload: flipped, RawLen: len(raw),
		})},
		{name: "CRC-bad compressed frame", crcBad: true, rb: one(batchChunk{
			From: 0, To: n, Payload: compress.Compress(flipped), Compressed: true, RawLen: len(raw),
		})},
	}

	env, cl := newTestCluster(t, testConfig())
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		mirror := cl.NICs[1]
		ms := mirror.newMirror(0)
		ms.putBuf(make([]byte, 0, 2*len(raw))) // the buffer every case must hand back
		acks := func() (total int64) {
			for _, nic := range cl.NICs {
				total += nic.AckMsgs
			}
			return total
		}
		for _, tc := range cases {
			rejectedBefore := cl.Robust.CRCRejected
			ms.handleBatch(p, tc.rb)
			p.Sleep(time.Millisecond) // an ack or forward, if any, lands well within this
			if got := acks(); got != 0 {
				t.Errorf("%s: %d acks reached the primary, want none", tc.name, got)
			}
			if mirror.RepMsgs != 0 {
				t.Errorf("%s: frame was forwarded down-chain", tc.name)
			}
			if head := ms.log.Head(); head != 0 {
				t.Errorf("%s: mirror head moved to %d", tc.name, head)
			}
			if len(ms.bufs) != 1 {
				t.Errorf("%s: %d buffers pooled, want the one lent back", tc.name, len(ms.bufs))
			}
			if got := cl.Robust.CRCRejected - rejectedBefore; (got == 1) != tc.crcBad {
				t.Errorf("%s: CRCRejected moved by %d, crcBad=%v", tc.name, got, tc.crcBad)
			}
		}
		ms.handleBatch(p, one(good))
		p.Sleep(10 * time.Millisecond)
		if head := ms.log.Head(); head != n {
			t.Errorf("well-formed frame: mirror head = %d, want %d", head, n)
		}
		if got := acks(); got != 2 {
			t.Errorf("well-formed frame: %d acks, want one per replica", got)
		}
	})
}

// FuzzDecodeBatchChunk drives the mirror's frame decoder with arbitrary
// payloads and declared lengths. It must never panic, never write outside
// the capacity-pinned slot the caller carved out of the batch buffer, and
// accept a frame only when the slot then holds exactly the declared bytes.
func FuzzDecodeBatchChunk(f *testing.F) {
	raw := wireEntries(1, 2<<10)
	zipped := compress.Compress(raw)
	f.Add(raw, len(raw), false)
	f.Add(raw, len(raw)-8, false)
	f.Add(zipped, len(raw), true)
	f.Add(zipped, len(raw)-8, true)
	f.Add(zipped, len(raw)+8, true)
	f.Add(zipped[:len(zipped)/2], len(raw), true)
	f.Add(raw, len(raw), true) // raw bytes mislabelled as compressed
	dec := compress.NewDecoder()
	f.Fuzz(func(t *testing.T, payload []byte, rawLen int, compressed bool) {
		if rawLen < 0 || rawLen > 1<<16 {
			t.Skip("declared length outside the sizes worth a buffer")
		}
		const guard = 64
		buf := bytes.Repeat([]byte{0xEE}, guard+rawLen+guard)
		slot := buf[guard : guard+rawLen : guard+rawLen]
		bc := &batchChunk{Payload: payload, Compressed: compressed, RawLen: rawLen}
		err := decodeBatchChunk(dec, slot, bc)
		for i := 0; i < guard; i++ {
			if buf[i] != 0xEE || buf[guard+rawLen+i] != 0xEE {
				t.Fatalf("decode wrote outside its slot (guard byte %d)", i)
			}
		}
		if err != nil {
			return
		}
		want := payload
		if compressed {
			if want, err = compress.ReferenceDecompress(payload); err != nil {
				t.Fatalf("accepted a stream the reference decoder rejects: %v", err)
			}
		}
		if !bytes.Equal(slot, want) {
			t.Fatalf("accepted frame holds %d bytes that differ from the %d declared", len(slot), len(want))
		}
	})
}
