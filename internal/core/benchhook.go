package core

import (
	"bytes"
	"fmt"

	"linefs/internal/compress"
	"linefs/internal/fs"
)

// ReplHotLoop builds warmed state for the pooled replication hot path and
// returns a closure that runs one steady-state iteration over it: growBuf
// (payload staging into a pooled chunk buffer), zipSubBlock (sub-block
// coding into the chunk-owned compression buffer and length table, through
// the inline compress path, sealed with its frame sum), and decodeBatchChunk
// (mirror-side batch frame decode into a pooled receive buffer). The
// benchmark's core.repl_hotloop rows time the closure and count its
// allocations; TestReplHotLoopAllocatesNothing holds the //linefs:hotpath
// annotations to it at run time: zero allocations per op once every buffer
// is warm.
func ReplHotLoop() (func(), error) {
	// A chunk's worth of wire-encoded write entries — the byte stream the
	// pipeline fetches and compresses and the mirror decodes.
	rec := bytes.Repeat([]byte("linefs replication hot path "), 32)
	var raw []byte
	for seq := uint64(1); len(raw) < 64<<10; seq++ {
		e := fs.Entry{Seq: seq, Type: fs.OpWrite, Ino: 3, Off: uint64(len(raw)), Data: rec}
		raw = e.AppendWire(raw)
	}
	enc := compress.NewEncoder()
	sent := &chunk{to: uint64(len(raw)), raw: raw}
	sent.zipAll(enc, maxSubBlocks(len(raw)))
	if sent.subLens == nil {
		return nil, fmt.Errorf("repl hot loop: corpus did not compress (%d >= %d)", len(sent.cbuf), len(raw))
	}
	dec := compress.NewDecoder()
	bc := sent.frame()
	// One pooled incarnation of each buffer, reused every iteration — the
	// steady state runCompletion's recycling produces.
	stage := make([]byte, 0, len(raw))
	ck := &chunk{raw: raw}
	dst := make([]byte, len(raw))
	return func() {
		stage = growBuf(stage, len(raw))
		ck.cbuf, ck.zipLens = ck.cbuf[:0], ck.zipLens[:0]
		ck.zipAll(enc, len(sent.zipLens))
		if err := decodeBatchChunk(dec, dst[:len(raw):len(raw)], &bc); err != nil {
			panic(err)
		}
	}, nil
}
