package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/rdma"
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

// zipFrame codes raw the way the compress stage does: one LZW stream per
// sub-block, back to back, and the table of their lengths.
func zipFrame(raw []byte) (payload []byte, lens []uint32) {
	ck := &chunk{raw: raw}
	ck.zipAll(compress.NewEncoder())
	return ck.cbuf, ck.zipLens
}

// TestMirrorFramingGates feeds the mirror's one data-frame handler every
// way a replChunkBatch can be malformed. Each must be rejected whole: no
// ack to the primary, nothing forwarded, the mirror head unmoved, and the
// receive buffer back in the pool. A well-formed frame built from the same
// parts then goes through, so the rejections are the gates' doing. The
// frames span two sub-blocks, and the cases run on both datapaths: decode
// time spent on the mirror thread alone, and spread over the NIC's cores.
func TestMirrorFramingGates(t *testing.T) {
	t.Parallel()
	raw := wireEntries(1, subBlockSize+(8<<10))
	n := uint64(len(raw))
	zipped, lens := zipFrame(raw)
	if len(lens) != 2 || len(zipped) >= len(raw) {
		t.Fatalf("corpus: %d sub-blocks, %d -> %d bytes; want 2 and a saving", len(lens), len(raw), len(zipped))
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xA5
	zipFlipped, lensFlipped := zipFrame(flipped)
	// The right bytes cut in the wrong place: table count, table sum and
	// total decoded length all check out, but sub-block 0 comes out 8 bytes
	// short and sub-block 1 8 bytes long.
	miscut := compress.NewEncoder().CompressInto(nil, raw[:subBlockSize-8])
	miscutLens := []uint32{uint32(len(miscut)), 0}
	miscut = append(miscut, compress.NewEncoder().CompressInto(nil, raw[subBlockSize-8:])...)
	miscutLens[1] = uint32(len(miscut)) - miscutLens[0]

	one := func(bc batchChunk) *replChunkBatch {
		return &replChunkBatch{From: bc.From, To: bc.To, Chunks: []batchChunk{bc}}
	}
	good := batchChunk{From: 0, To: n, Payload: raw, RawLen: len(raw)}
	goodZip := batchChunk{From: 0, To: n, Payload: zipped, SubLens: lens, RawLen: len(raw)}
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
			From: 0, To: n - 8, Payload: zipped, SubLens: lens, RawLen: len(raw) - 8,
		})},
		{name: "compressed frame decodes short", rb: one(batchChunk{
			From: 0, To: n + 8, Payload: zipped, SubLens: lens, RawLen: len(raw) + 8,
		})},
		{name: "table sums past the payload", rb: one(batchChunk{
			From: 0, To: n, Payload: zipped[:len(zipped)-1], SubLens: lens, RawLen: len(raw),
		})},
		{name: "table sums short of the payload", rb: one(batchChunk{
			From: 0, To: n, Payload: append(zipped[:len(zipped):len(zipped)], 0), SubLens: lens, RawLen: len(raw),
		})},
		{name: "one table entry for two sub-blocks", rb: one(batchChunk{
			From: 0, To: n, Payload: zipped, SubLens: []uint32{uint32(len(zipped))}, RawLen: len(raw),
		})},
		{name: "three table entries for two sub-blocks", rb: one(batchChunk{
			From: 0, To: n, Payload: zipped, SubLens: []uint32{lens[0], lens[1] - 1, 1}, RawLen: len(raw),
		})},
		{name: "zero-length table entry", rb: one(batchChunk{
			From: 0, To: n, Payload: zipped, SubLens: []uint32{uint32(len(zipped)), 0}, RawLen: len(raw),
		})},
		{name: "sub-blocks cut in the wrong place", rb: one(batchChunk{
			From: 0, To: n, Payload: miscut, SubLens: miscutLens, RawLen: len(raw),
		})},
		{name: "CRC-bad raw frame", crcBad: true, rb: one(batchChunk{
			From: 0, To: n, Payload: flipped, RawLen: len(raw),
		})},
		{name: "CRC-bad compressed frame", crcBad: true, rb: one(batchChunk{
			From: 0, To: n, Payload: zipFlipped, SubLens: lensFlipped, RawLen: len(raw),
		})},
	}

	// Both ways a mirror spends a well-formed frame's decode time: on its own
	// thread, and spread over the cores.
	for _, parallel := range []bool{false, true} {
		cfg := testConfig()
		cfg.Compress, cfg.Parallel = true, parallel
		env, cl := newTestCluster(t, cfg)
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			// An attached (idle) client gives slot 0 its real chain geometry:
			// node 2 is the last hop and forwards nowhere.
			if _, err := cl.Attach(p, 0); err != nil {
				t.Fatal(err)
			}
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
			ms.handleBatch(p, one(goodZip))
			p.Sleep(50 * time.Millisecond)
			if head := ms.log.Head(); head != n {
				t.Errorf("well-formed frame: mirror head = %d, want %d", head, n)
			}
			if got := acks(); got != 2 {
				t.Errorf("well-formed frame: %d acks, want one per replica", got)
			}
			assertMirrorLogHolds(t, cl, 1, raw)
			assertMirrorLogHolds(t, cl, 2, raw)
		})
		env.Shutdown()
	}
}

// TestMirrorDropsFrameOffItsChain: a node runs a mirror only for a slot whose
// chain passes through it as a replica, and the chain starts where the slot's
// client attached. A well-formed frame for a slot nobody attached, or for an
// attached slot delivered to its own primary, is dropped whole: no mirror
// process, no ack, no forward, no byte in the slot's log area — where the
// seed guessed a chain ("the immediate predecessor is the primary"),
// persisted the bytes and acknowledged them to a node that never sent them.
func TestMirrorDropsFrameOffItsChain(t *testing.T) {
	t.Parallel()
	raw := wireEntries(1, 8<<10)
	frame := func(slot int) *rdma.Msg {
		bc := batchChunk{From: 0, To: uint64(len(raw)), Payload: raw, RawLen: len(raw)}
		return &rdma.Msg{Op: "repl-batch", Arg: &replChunkBatch{Slot: slot, From: bc.From, To: bc.To, Chunks: []batchChunk{bc}}}
	}
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		if _, err := cl.Attach(p, 0); err != nil { // slot 0: chain 0 -> 1 -> 2
			t.Fatal(err)
		}
		cl.NICs[1].routeMirror(p, frame(1)) // slot 1: nobody attached
		cl.NICs[0].routeMirror(p, frame(0)) // slot 0 at its own primary
		p.Sleep(50 * time.Millisecond)
		for i, nic := range cl.NICs {
			if len(nic.mirrors) != 0 {
				t.Errorf("node %d started %d mirror(s) for a frame off its chain", i, len(nic.mirrors))
			}
			if nic.AckMsgs != 0 || nic.RepMsgs != 0 {
				t.Errorf("node %d: %d acks received, %d frames forwarded; want none", i, nic.AckMsgs, nic.RepMsgs)
			}
		}
		got := make([]byte, len(raw))
		fs.NoCostCtx(cl.Machines[1].PM).Read(cl.LogBase(1), got)
		if !bytes.Equal(got, make([]byte, len(raw))) {
			t.Error("node 1 persisted bytes into the log area of a slot nobody attached")
		}

		// The same frame on the slot's chain goes through.
		cl.NICs[1].routeMirror(p, frame(0))
		p.Sleep(50 * time.Millisecond)
		assertMirrorLogHolds(t, cl, 1, raw)
		assertMirrorLogHolds(t, cl, 2, raw)
	})
}

// assertMirrorLogHolds checks that machine mi's PM mirror of slot 0's log
// starts with exactly want.
func assertMirrorLogHolds(t *testing.T, cl *Cluster, mi int, want []byte) {
	t.Helper()
	la := fs.NewLogArea(cl.Machines[mi].PM, cl.LogBase(0), cl.Cfg.LogSize)
	got := make([]byte, len(want))
	la.ReadRawInto(fs.NoCostCtx(cl.Machines[mi].PM), 0, got)
	if !bytes.Equal(got, want) {
		t.Errorf("node %d: persisted mirror log differs from the bytes the primary framed", mi)
	}
}

// fuzzTable reads a fuzzer-supplied byte string as a sub-block table.
func fuzzTable(b []byte) []uint32 {
	lens := make([]uint32, len(b)/4)
	for i := range lens {
		lens[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return lens
}

func tableBytes(lens []uint32) []byte {
	var b []byte
	for _, l := range lens {
		b = binary.LittleEndian.AppendUint32(b, l)
	}
	return b
}

// FuzzDecodeBatchChunk drives the mirror's frame decoder with arbitrary
// payloads, declared lengths and sub-block tables. It must never panic,
// never write outside the capacity-pinned slot the caller carved out of the
// batch buffer, and accept a frame only when the table fits payload and
// declared length and the slot then holds exactly the bytes the reference
// decoder gets from each sub-block. The seeds (here and in testdata) are
// each way a table can be wrong, at one, two and three sub-blocks.
func FuzzDecodeBatchChunk(f *testing.F) {
	raw := wireEntries(1, 2<<10)
	zipped, lens := zipFrame(raw)
	f.Add(raw, len(raw), []byte{})
	f.Add(raw, len(raw)-8, []byte{})
	f.Add(zipped, len(raw), tableBytes(lens))
	f.Add(zipped, len(raw)-8, tableBytes(lens))
	f.Add(zipped, len(raw)+8, tableBytes(lens))
	f.Add(zipped[:len(zipped)/2], len(raw), tableBytes([]uint32{uint32(len(zipped) / 2)}))
	f.Add(raw, len(raw), tableBytes([]uint32{uint32(len(raw))})) // raw bytes mislabelled as compressed
	big := wireEntries(1, subBlockSize+(4<<10))
	bigZip, bigLens := zipFrame(big)
	f.Add(bigZip, len(big), tableBytes(bigLens))
	f.Add(bigZip, len(big), tableBytes([]uint32{uint32(len(bigZip))}))                 // too few entries
	f.Add(bigZip, len(big), tableBytes([]uint32{bigLens[0], bigLens[1] - 1, 1}))       // too many
	f.Add(bigZip, len(big), tableBytes([]uint32{uint32(len(bigZip)), 0}))              // zero-length entry
	f.Add(bigZip, len(big), tableBytes([]uint32{bigLens[0] + 1, bigLens[1] - 1}))      // cut mid-stream
	f.Add(bigZip[:len(bigZip)-1], len(big), tableBytes(bigLens))                       // sum != payload
	f.Add(bigZip, len(big), tableBytes([]uint32{bigLens[0], ^uint32(0) - bigLens[0]})) // sum wraps
	dec := compress.NewDecoder()
	f.Fuzz(func(t *testing.T, payload []byte, rawLen int, table []byte) {
		if rawLen < 0 || rawLen > 2*subBlockSize+(1<<12) {
			t.Skip("declared length outside the sizes worth a buffer")
		}
		const guard = 64
		buf := bytes.Repeat([]byte{0xEE}, guard+rawLen+guard)
		slot := buf[guard : guard+rawLen : guard+rawLen]
		bc := &batchChunk{Payload: payload, SubLens: fuzzTable(table), RawLen: rawLen}
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
		if len(bc.SubLens) > 0 {
			if len(bc.SubLens) != subBlocks(rawLen) {
				t.Fatalf("accepted %d table entries for %d raw bytes", len(bc.SubLens), rawLen)
			}
			want = nil
			at := 0
			for i, l := range bc.SubLens {
				if l == 0 || at+int(l) > len(payload) {
					t.Fatalf("accepted table entry %d = %d at payload offset %d of %d", i, l, at, len(payload))
				}
				// A cold decoder, so state the warm one carried over between
				// sub-blocks cannot agree with itself. (Parity with the seed
				// decoder is internal/compress's own fuzz target.)
				sub, err := compress.NewDecoder().DecompressInto(nil, payload[at:at+int(l)])
				if err != nil {
					t.Fatalf("accepted a sub-block a cold decoder rejects: %v", err)
				}
				if lo, hi := subBlockSpan(rawLen, i); len(sub) != hi-lo {
					t.Fatalf("accepted sub-block %d of %d bytes, want %d", i, len(sub), hi-lo)
				}
				want = append(want, sub...)
				at += int(l)
			}
			if at != len(payload) {
				t.Fatalf("accepted a table covering %d of %d payload bytes", at, len(payload))
			}
		}
		if !bytes.Equal(slot, want) {
			t.Fatalf("accepted frame holds %d bytes that differ from the %d declared", len(slot), len(want))
		}
	})
}

// TestFirstChunkSurvivesAnOvertakingFsync: on a slot's first use, one bulk
// chunk goes down the chain with an fsync's tail right behind it. The tail
// rides the low-latency class and overtakes the chunk on the replica 1 →
// replica 2 hop, so replica 2's mirror is born on a frame that does not start
// at offset zero — and has to wait for the one that does. When every new
// mirror adopted its first frame's offset (a rule for a NICFS re-joining after
// Recover), the bulk chunk then looked like a duplicate, was re-acked and
// dropped: the fsync succeeded and the file never existed on node 2.
func TestFirstChunkSurvivesAnOvertakingFsync(t *testing.T) {
	t.Parallel()
	const chunk, wr = 4 << 20, 16 << 10
	for _, tail := range []int{16 << 10, 256 << 10, 1 << 20} {
		cfg := testConfig()
		cfg.ChunkSize = chunk
		env, cl := newTestCluster(t, cfg)
		payload := bytes.Repeat([]byte{0xF1}, chunk+tail)
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			l, err := cl.Attach(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			fd, err := l.Create(p, "/f")
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(payload); off += wr {
				if _, err := l.WriteAt(p, fd, uint64(off), payload[off:off+wr]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Fsync(p, fd); err != nil {
				t.Fatalf("tail %d KiB: fsync: %v", tail>>10, err)
			}
			head := cl.NICs[0].clients[0].log.Head()
			for _, mi := range []int{1, 2} {
				if got := cl.NICs[mi].mirrors[0].log.Head(); got != head {
					t.Errorf("tail %d KiB: node %d mirror head %d, primary's %d", tail>>10, mi, got, head)
				}
			}
			p.Sleep(time.Second) // background publication
			assertReplicasHold(t, cl, "/f", payload)
		})
		env.Shutdown()
	}
}
