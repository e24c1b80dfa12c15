package core

import (
	"errors"
	"hash/crc32"
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

// subBlockFloor is the smallest unit of LZW work on the chain. A chunk that
// travels compressed is coded as independent sub-blocks, so that both ends
// can spread its codec time over the SmartNIC's cores: one sub-block per core
// (subBlocksFor), but no more than one per 64 KiB. Each cut throws away an
// LZW dictionary; a 4 MiB chunk cut 16 ways costs 0.0-0.8 % in wire bytes,
// and only a chunk under 1 MiB is cut as fine as the floor (DESIGN.md §11 has
// the measured table, TestSubBlockingCostsUnderOnePercent pins it).
const subBlockFloor = 64 << 10

// maxSubBlocks is the most sub-blocks a rawLen-byte chunk may be cut into:
// one per subBlockFloor raw bytes.
func maxSubBlocks(rawLen int) int { return (rawLen + subBlockFloor - 1) / subBlockFloor }

// subBlocksFor is how many sub-blocks a sender cuts a rawLen-byte chunk into
// on a SmartNIC of cores cores.
func subBlocksFor(rawLen, cores int) int { return min(cores, maxSubBlocks(rawLen)) }

// subBlockSpan returns the raw byte range of sub-block i of a rawLen-byte
// chunk cut into k: k sub-blocks of ⌈rawLen/k⌉ bytes, the last one shorter.
func subBlockSpan(rawLen, k, i int) (lo, hi int) {
	size := (rawLen + k - 1) / k
	return min(i*size, rawLen), min((i+1)*size, rawLen)
}

// subLenBytes is the wire size of one SubLens entry, sumBytes of Sum.
const subLenBytes, sumBytes = 4, 4

// batchChunk is one chunk's framing inside a replChunkBatch.
type batchChunk struct {
	From, To uint64 // log logical offsets covered
	// Payload is the chunk's raw log bytes when SubLens is empty. Otherwise
	// it is the chunk's sub-blocks back to back, each an LZW stream of its
	// own, and SubLens[i] is the compressed length of sub-block i. The
	// sender chooses the count; the spans follow from it and RawLen
	// (subBlockSpan), so the frame describes itself. The table lets a mirror
	// decode sub-blocks independently, and Sum (frameSum, compressed only)
	// relay the frame before it decodes it.
	Payload []byte
	SubLens []uint32
	Sum     uint32
	RawLen  int
}

// wireLen is the frame's size on the wire: payload, and table and Sum when compressed.
func (bc batchChunk) wireLen() int {
	return len(bc.Payload) + subLenBytes*len(bc.SubLens) + sumBytes*min(len(bc.SubLens), 1)
}

// errBatchFrame rejects a replication frame whose payload, sub-block table,
// Sum and declared raw length do not agree.
var errBatchFrame = errors.New("core: malformed replication frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameSum is the CRC-32C of a sub-block table, entries little-endian, then
// the payload; the table goes byte by byte, as a buffer would escape.
//
//linefs:hotpath
func frameSum(lens []uint32, payload []byte) uint32 {
	crc := ^uint32(0)
	for _, l := range lens {
		for range subLenBytes {
			crc, l = castagnoli[byte(crc)^byte(l)]^(crc>>8), l>>8
		}
	}
	return crc32.Update(^crc, castagnoli, payload)
}

// checkSum rejects a compressed frame damaged in flight; a raw frame's
// check is VerifyWire.
func (bc *batchChunk) checkSum() error {
	if len(bc.SubLens) > 0 && frameSum(bc.SubLens, bc.Payload) != bc.Sum {
		return errBatchFrame
	}
	return nil
}

// checkTable verifies a frame's lengths before anything is decoded: a raw
// payload is exactly RawLen bytes; a compressed one has at least one and at
// most maxSubBlocks(RawLen) non-empty sub-blocks, and the table sums to the
// payload. The bound caps the helpers a table can ask a mirror for, and it
// leaves no span empty: the last one is empty only if (k-1)² ≥ RawLen,
// which k ≤ ⌈RawLen/64 KiB⌉ rules out below 4 GiB of raw bytes.
func (bc *batchChunk) checkTable() error {
	if len(bc.SubLens) == 0 {
		if len(bc.Payload) != bc.RawLen {
			return errBatchFrame
		}
		return nil
	}
	if bc.RawLen < 0 || len(bc.SubLens) > maxSubBlocks(bc.RawLen) {
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
	From, To uint64
	// Settled is ChainSender.Settled: a mirror's head below it moves up to
	// it. It rides in the header rdma charges every message.
	Settled uint64
	// Sync is set when any member chunk is fsync-path (the batch then rides
	// the low-latency class).
	Sync   bool
	Chunks []batchChunk
}

// CorruptCopy implements rdma.Corrupter: the fault plane's in-flight
// bit-flip, on a deep copy of one member frame's payload (payloads are
// pooled on the primary and shared with down-chain forwards). Framing and
// Sum stay intact: a payload bit error the mirror's entry CRCs or Sum must
// catch. A one-frame message draws no frame index: the fault schedule of a
// seed depends on the draw sequence, and there is nothing to choose.
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

// historyReq asks a peer for the inodes its publication changed since an
// epoch (recovery).
type historyReq struct {
	Since uint64
}

// historyResp is the peer's current epoch and the union of its history sets
// since Since, ascending.
type historyResp struct {
	Epoch uint64
	Inos  []fs.Ino
}

// fetchFileReq pulls one published inode from a peer (recovery).
type fetchFileReq struct {
	Ino fs.Ino
}

// fetchFileResp is the inode as the peer holds it: a file's bytes or a
// directory's entries; Exists is false for a free inode.
type fetchFileResp struct {
	Exists  bool
	Type    fs.FileType
	Data    []byte
	Entries []fs.DirEnt
}
