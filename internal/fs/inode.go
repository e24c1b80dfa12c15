package fs

import (
	"encoding/binary"
	"fmt"
)

// Inode is the on-PM per-file record (InodeSize bytes on the device).
type Inode struct {
	Ino   Ino
	Type  FileType
	Nlink uint16
	Size  uint64
	// ExtHead is the first extent block of the file's extent chain
	// (0 = none); ExtTail is the last, kept for O(1) appends.
	ExtHead uint64
	ExtTail uint64
	Mtime   int64
}

func (in *Inode) encode(b *[InodeSize]byte) {
	binary.LittleEndian.PutUint32(b[0:], uint32(in.Ino))
	b[4] = byte(in.Type)
	binary.LittleEndian.PutUint16(b[6:], in.Nlink)
	binary.LittleEndian.PutUint64(b[8:], in.Size)
	binary.LittleEndian.PutUint64(b[16:], in.ExtHead)
	binary.LittleEndian.PutUint64(b[24:], in.ExtTail)
	binary.LittleEndian.PutUint64(b[32:], uint64(in.Mtime))
}

func (in *Inode) decode(b *[InodeSize]byte) {
	in.Ino = Ino(binary.LittleEndian.Uint32(b[0:]))
	in.Type = FileType(b[4])
	in.Nlink = binary.LittleEndian.Uint16(b[6:])
	in.Size = binary.LittleEndian.Uint64(b[8:])
	in.ExtHead = binary.LittleEndian.Uint64(b[16:])
	in.ExtTail = binary.LittleEndian.Uint64(b[24:])
	in.Mtime = int64(binary.LittleEndian.Uint64(b[32:]))
}

// ErrNoInode reports a lookup of a free or out-of-range inode.
var ErrNoInode = fmt.Errorf("fs: no such inode")

// ReadInode loads an inode from PM.
//
//linefs:hotpath
func (v *Vol) ReadInode(c *Ctx, ino Ino) (Inode, error) {
	if uint32(ino) >= v.sb.NInodes || ino == 0 {
		return Inode{}, ErrNoInode
	}
	var buf [InodeSize]byte
	c.Read(v.inodeOff(ino), buf[:])
	var in Inode
	in.decode(&buf)
	if in.Type == TypeFree {
		return Inode{}, ErrNoInode
	}
	return in, nil
}

//linefs:hotpath
func (v *Vol) writeInode(c *Ctx, in *Inode) {
	var buf [InodeSize]byte
	in.encode(&buf)
	c.Write(v.inodeOff(in.Ino), buf[:])
}

// FreeInode releases an inode and its extent chain's blocks.
func (v *Vol) FreeInode(c *Ctx, ino Ino) error {
	in, err := v.ReadInode(c, ino)
	if err != nil {
		return err
	}
	runs := v.chainRuns(c, in.ExtHead)
	in = Inode{Ino: ino, Type: TypeFree}
	v.writeInode(c, &in)
	v.release(c, runs)
	v.cacheExtentsDrop(ino)
	v.cacheDirDrop(ino)
	return nil
}

// chainRuns lists in v.freed every data block run an extent chain maps and
// the chain's own blocks, without freeing any.
func (v *Vol) chainRuns(c *Ctx, blk uint64) []Extent {
	v.freed = v.freed[:0]
	for blk != 0 {
		var hdr extHdr
		hdr, v.freed = v.readExtBlock(c, blk, v.freed)
		v.freed = append(v.freed, Extent{BlkNo: blk, Count: 1})
		blk = hdr.Next
	}
	return v.freed
}

// release returns runs to the allocator and the device (they read zero when
// reallocated and stop costing host memory), after the durable inode write
// that stops referencing them: a crash before it loses no bytes, one after
// it leaks the runs not yet released, and neither frees a block twice
// (DESIGN.md §9).
func (v *Vol) release(c *Ctx, runs []Extent) {
	for _, e := range runs {
		v.freeRange(c, e.BlkNo, uint64(e.Count))
		v.pm.Discard(v.blockOff(e.BlkNo), int64(e.Count)*BlockSize)
	}
}
