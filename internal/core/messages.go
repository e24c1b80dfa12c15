package core

import (
	"errors"
	"math/rand"

	"linefs/internal/fs"
	"linefs/internal/lease"
)

// Wire message payloads between LibFS, NICFS instances, and kernel workers.
// Payload []byte fields carry real data; the Size passed to the RDMA layer
// charges their wire cost.

type attachReq struct {
	Client string
	Slot   int
}

type attachResp struct {
	InoBase  fs.Ino
	InoCount int
	LogBase  int64
	LogSize  int64
}

type openReq struct {
	Client string
	Path   string
}

type openResp struct {
	Ino  fs.Ino
	Size uint64
	Type fs.FileType
}

type leaseReq struct {
	Client string
	Ino    fs.Ino
	Mode   lease.Mode
}

type leaseResp struct {
	OK        bool
	Conflicts []string
}

// chunkReady tells NICFS the client log has grown to Head (async).
type chunkReady struct {
	Slot int
	Head uint64
	// Marks are entry-aligned intermediate chunk boundaries (< Head): one
	// coalesced doorbell submits Marks plus the final [last mark, Head)
	// range as separate chunks under a single dispatch.
	Marks []uint64
}

// fsyncReq asks NICFS to make everything up to Head durable on all
// replicas (synchronous).
type fsyncReq struct {
	Slot int
	Head uint64
	// Cuts are entry-aligned boundaries (< Head, oldest first) at which a
	// pipelined datapath cuts the range the fsync forms into pieces.
	Cuts []uint64
}

// touched records a namespace-visible update for the epoch history bitmap.
type touched struct {
	Ino  fs.Ino
	PIno fs.Ino
	Name string
	Type fs.FileType
	Gone bool // unlinked
}

// subBlockSize is the unit of LZW work on the chain: a chunk that travels
// compressed is coded as independent sub-blocks of this many raw bytes (the
// last one shorter), so that both ends can spread one chunk's codec time
// over the SmartNIC's cores. 256 KiB is about one LZW dictionary lifetime on
// log data, so cutting there costs 0.0-0.8 % in wire bytes; at 128 KiB every
// cut throws away half a dictionary and the cost is up to 7 % (DESIGN.md
// §11 has the measured table, TestSubBlockingCostsUnderOnePercent pins it).
const subBlockSize = 256 << 10

// subBlocks returns how many sub-blocks cover rawLen bytes.
func subBlocks(rawLen int) int { return (rawLen + subBlockSize - 1) / subBlockSize }

// subBlockSpan returns the raw byte range of sub-block i of a rawLen-byte
// chunk.
func subBlockSpan(rawLen, i int) (lo, hi int) {
	return i * subBlockSize, min((i+1)*subBlockSize, rawLen)
}

// subLenBytes is the wire size of one SubLens entry.
const subLenBytes = 4

// batchChunk is one chunk's framing inside a replChunkBatch.
type batchChunk struct {
	From, To uint64 // log logical offsets covered
	// Payload is the chunk's raw log bytes when SubLens is empty. Otherwise
	// it is the chunk's sub-blocks back to back, each an LZW stream of its
	// own, and SubLens[i] is the compressed length of sub-block i: one entry
	// per subBlockSize raw bytes, so a chunk no larger than a sub-block has
	// one. The table is what lets a mirror decode sub-blocks independently.
	Payload []byte
	SubLens []uint32
	RawLen  int
	Touched []touched
}

// wireLen is the frame's size on the wire: payload plus sub-block table.
func (bc batchChunk) wireLen() int { return len(bc.Payload) + subLenBytes*len(bc.SubLens) }

// errBatchFrame rejects a replication frame whose payload, sub-block table
// and declared raw length do not agree.
var errBatchFrame = errors.New("core: replication frame length mismatch")

// checkTable verifies a frame's lengths before anything is decoded: a raw
// payload is exactly RawLen bytes; a compressed one has one non-empty
// sub-block per subBlockSize raw bytes and the table sums to the payload.
func (bc *batchChunk) checkTable() error {
	if len(bc.SubLens) == 0 {
		if len(bc.Payload) != bc.RawLen {
			return errBatchFrame
		}
		return nil
	}
	if bc.RawLen < 0 || len(bc.SubLens) != subBlocks(bc.RawLen) {
		return errBatchFrame
	}
	sum := 0
	for _, l := range bc.SubLens {
		if l == 0 || int(l) > len(bc.Payload)-sum {
			return errBatchFrame
		}
		sum += int(l)
	}
	if sum != len(bc.Payload) {
		return errBatchFrame
	}
	return nil
}

// replChunkBatch is the chain's only data message: contiguous chunks of one
// slot framed into a single wire message per replica hop (doorbell
// batching). One message header, one switch traversal, and one RPC dispatch
// amortize over every chunk, and the receiver persists and acknowledges the
// whole batch at once; an idle chain sends batches of one. Chunks are
// ordered and contiguous: Chunks[0].From == From, each frame starts where
// the previous ended, and the last ends at To.
type replChunkBatch struct {
	Slot     int
	Epoch    uint64
	From, To uint64
	// Sync is set when any member chunk is fsync-path (the batch then rides
	// the low-latency class).
	Sync   bool
	Chunks []batchChunk
}

// CorruptCopy implements rdma.Corrupter: the fault plane's in-flight
// bit-flip. Payload buffers are pooled on the primary and shared with
// down-chain forwards, so the flip lands on a deep copy of one member
// frame's payload only; the other frames are shared untouched and framing
// fields stay intact, which models a payload bit error the CRC gate must
// catch (a mangled header is caught by the framing checks instead). A
// one-frame message draws no frame index: the fault schedule of a seed
// depends on the draw sequence, and there is nothing to choose.
func (rb *replChunkBatch) CorruptCopy(rng *rand.Rand) any {
	out := *rb
	if len(rb.Chunks) == 0 {
		return &out
	}
	out.Chunks = append([]batchChunk(nil), rb.Chunks...)
	i := 0
	if len(out.Chunks) > 1 {
		i = rng.Intn(len(out.Chunks))
	}
	bad := append([]byte(nil), out.Chunks[i].Payload...)
	if len(bad) > 0 {
		bad[rng.Intn(len(bad))] ^= 0xA5
	}
	out.Chunks[i].Payload = bad
	return &out
}

// replDirect notifies the last replica that chunk bytes were already
// RDMA-written into its host PM log slot (the §3.3.2 step-6 optimization).
type replDirect struct {
	Slot     int
	From, To uint64
	Touched  []touched
	Epoch    uint64
}

// replAck reports that node Node has persisted every chunk through To: a
// cumulative watermark, not a per-chunk receipt. One ack per batch advances
// the primary's per-replica watermark; anything at or below it is already
// covered, so a regressing or duplicate ack is stale by definition.
type replAck struct {
	Slot int
	To   uint64
	Node string
}

// reclaimMsg tells LibFS its log can be truncated up to UpTo.
type reclaimMsg struct {
	Slot int
	UpTo uint64
}

// revokeMsg asks LibFS to drop a cached lease.
type revokeMsg struct {
	Ino fs.Ino
}

// copyItem is one publication copy: place Data at PM offset Dst.
type copyItem struct {
	Dst  int64
	Data []byte
}

// copyReq is a kernel-worker publication batch.
type copyReq struct {
	Items []copyItem
}

// leaseRecord replicates a lease grant/release for crash consistency.
type leaseRecord struct {
	Rec      lease.Record
	Released bool
}

// historyReq asks a peer for namespace history since an epoch (recovery).
type historyReq struct {
	Since uint64
}

type historyResp struct {
	Epoch   uint64
	Touched []touched
}

// fetchFileReq pulls a published file's content from a peer (recovery).
type fetchFileReq struct {
	Ino fs.Ino
}

type fetchFileResp struct {
	Exists bool
	Type   fs.FileType
	Size   uint64
	Data   []byte
}
