package fs

import (
	"encoding/binary"
	"sort"
	"time"
)

// Extent maps a run of file blocks to a run of data blocks.
type Extent struct {
	FileBlk uint64
	BlkNo   uint64
	Count   uint32
}

const (
	extHdrSize    = 16
	extEntrySize  = 24
	extPerBlock   = (BlockSize - extHdrSize) / extEntrySize
	extLookupCost = 150 * time.Nanosecond // per extent-block scan
	extInsertCost = 200 * time.Nanosecond
)

type extHdr struct {
	Next  uint64
	Count uint16
}

// readExtBlock reads extent block blk and appends its entries to ents,
// which the caller owns: the block is read into a stack buffer, so a read
// allocates nothing once ents has the room.
//
//linefs:hotpath
func (v *Vol) readExtBlock(c *Ctx, blk uint64, ents []Extent) (extHdr, []Extent) {
	var buf [BlockSize]byte
	c.Read(v.blockOff(blk), buf[:])
	var h extHdr
	h.Next = binary.LittleEndian.Uint64(buf[0:])
	h.Count = binary.LittleEndian.Uint16(buf[8:])
	for i := range int(h.Count) {
		off := extHdrSize + i*extEntrySize
		ents = append(ents, Extent{
			FileBlk: binary.LittleEndian.Uint64(buf[off:]),
			BlkNo:   binary.LittleEndian.Uint64(buf[off+8:]),
			Count:   binary.LittleEndian.Uint32(buf[off+16:]),
		})
	}
	return h, ents
}

//linefs:hotpath
func (v *Vol) writeExtHdr(c *Ctx, blk uint64, h extHdr) {
	var buf [extHdrSize]byte
	binary.LittleEndian.PutUint64(buf[0:], h.Next)
	binary.LittleEndian.PutUint16(buf[8:], h.Count)
	c.Write(v.blockOff(blk), buf[:])
}

//linefs:hotpath
func (v *Vol) writeExtEntry(c *Ctx, blk uint64, idx int, e Extent) {
	var buf [extEntrySize]byte
	binary.LittleEndian.PutUint64(buf[0:], e.FileBlk)
	binary.LittleEndian.PutUint64(buf[8:], e.BlkNo)
	binary.LittleEndian.PutUint32(buf[16:], e.Count)
	c.Write(v.blockOff(blk)+int64(extHdrSize+idx*extEntrySize), buf[:])
}

// ExtentAppend records that file blocks [e.FileBlk, e.FileBlk+e.Count) live
// at data blocks [e.BlkNo, …). Adjacent appends merge. The caller must hold
// the volume lock and write the (possibly modified) inode back.
func (v *Vol) ExtentAppend(c *Ctx, in *Inode, e Extent) error {
	c.Compute(extInsertCost)
	if in.ExtHead == 0 {
		blk, _, err := v.AllocRange(c, 1)
		if err != nil {
			return err
		}
		v.writeExtHdr(c, blk, extHdr{Count: 1})
		v.writeExtEntry(c, blk, 0, e)
		in.ExtHead, in.ExtTail = blk, blk
		v.cacheExtentAppend(in.Ino, e, false)
		return nil
	}
	var tail [extPerBlock]Extent
	h, ents := v.readExtBlock(c, in.ExtTail, tail[:0])
	if h.Count > 0 {
		last := ents[h.Count-1]
		if last.FileBlk+uint64(last.Count) == e.FileBlk &&
			last.BlkNo+uint64(last.Count) == e.BlkNo {
			last.Count += e.Count
			v.writeExtEntry(c, in.ExtTail, int(h.Count-1), last)
			v.cacheExtentAppend(in.Ino, e, true)
			return nil
		}
	}
	if int(h.Count) < extPerBlock {
		v.writeExtEntry(c, in.ExtTail, int(h.Count), e)
		h.Count++
		v.writeExtHdr(c, in.ExtTail, h)
		v.cacheExtentAppend(in.Ino, e, false)
		return nil
	}
	// Tail block full: chain a new one.
	blk, _, err := v.AllocRange(c, 1)
	if err != nil {
		return err
	}
	v.writeExtHdr(c, blk, extHdr{Count: 1})
	v.writeExtEntry(c, blk, 0, e)
	h.Next = blk
	v.writeExtHdr(c, in.ExtTail, h)
	in.ExtTail = blk
	v.cacheExtentAppend(in.Ino, e, false)
	return nil
}

// ExtentLookup resolves one file block to its data block via the cached,
// sorted extent list (binary search).
func (v *Vol) ExtentLookup(c *Ctx, in *Inode, fileBlk uint64) (uint64, bool) {
	ents := v.loadExtents(c, in)
	c.Compute(extLookupCost)
	i := sort.Search(len(ents), func(i int) bool { return ents[i].FileBlk > fileBlk })
	if i == 0 {
		return 0, false
	}
	e := ents[i-1]
	if fileBlk < e.FileBlk+uint64(e.Count) {
		return e.BlkNo + (fileBlk - e.FileBlk), true
	}
	return 0, false
}

// MappedRun describes the resolution of a contiguous range of file blocks.
type MappedRun struct {
	FileBlk uint64
	Count   uint64
	BlkNo   uint64 // valid only if Mapped
	Mapped  bool
}

// LookupRange resolves file blocks [fileBlk, fileBlk+count) into maximal
// runs, marking holes, and appends them to runs, which the caller owns. It
// walks the cached extent list in place, so a lookup allocates nothing
// while runs has the room.
//
//linefs:hotpath
func (v *Vol) LookupRange(c *Ctx, in *Inode, fileBlk, count uint64, runs []MappedRun) []MappedRun {
	// The extents overlapping the window: a subslice of the sorted cache.
	all := v.loadExtents(c, in)
	c.Compute(extLookupCost)
	end := fileBlk + count
	lo := sort.Search(len(all), func(i int) bool {
		return all[i].FileBlk+uint64(all[i].Count) > fileBlk
	})
	hi := lo
	for hi < len(all) && all[hi].FileBlk < end {
		hi++
	}
	overlapping := all[lo:hi]
	// Walk the window left to right, emitting mapped runs and holes.
	pos := fileBlk
	for pos < end {
		var best *Extent
		var nextStart = end
		for i := range overlapping {
			e := &overlapping[i]
			if pos >= e.FileBlk && pos < e.FileBlk+uint64(e.Count) {
				best = e
				break
			}
			if e.FileBlk > pos && e.FileBlk < nextStart {
				nextStart = e.FileBlk
			}
		}
		if best != nil {
			runEnd := min(best.FileBlk+uint64(best.Count), end)
			runs = append(runs, MappedRun{
				FileBlk: pos,
				Count:   runEnd - pos,
				BlkNo:   best.BlkNo + (pos - best.FileBlk),
				Mapped:  true,
			})
			pos = runEnd
		} else {
			runs = append(runs, MappedRun{FileBlk: pos, Count: nextStart - pos})
			pos = nextStart
		}
	}
	return runs
}

// ExtentCount returns the number of extent entries (test/diagnostic).
func (v *Vol) ExtentCount(c *Ctx, in *Inode) int {
	var buf [extPerBlock]Extent
	n := 0
	blk := in.ExtHead
	for blk != 0 {
		h, ents := v.readExtBlock(c, blk, buf[:0])
		n += len(ents)
		blk = h.Next
	}
	return n
}
