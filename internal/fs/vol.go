package fs

import (
	"encoding/binary"
	"fmt"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

// Layout constants.
const (
	BlockSize = 4096
	InodeSize = 128

	// RootIno is the root directory's inode number.
	RootIno Ino = 1

	volMagic = 0x4C696E46 // "LinF"
)

// Ino is an inode number. 0 is invalid.
type Ino uint32

// FileType tags an inode.
type FileType uint8

// Inode types.
const (
	TypeFree FileType = iota
	TypeFile
	TypeDir
)

// Vol is a mounted public PM area: the shared, published file system state
// of one node. All structure updates go through a coarse metadata mutex
// (alloc, inode, extent and directory manipulation), mirroring the journal
// apply lock of the real system; bulk data copies happen outside it.
type Vol struct {
	pm   *hw.PM
	base int64
	sb   superblock

	// mu serializes metadata updates across concurrent publishers.
	mu *sim.Resource

	// bitmap mirrors the on-PM allocation bitmap for fast scanning; all
	// modifications write through.
	bitmap  []byte
	nextHit uint64   // next-fit pointer for contiguous allocation
	freed   []Extent // scratch: the block runs the last free released

	// cache holds the DRAM index mirrors (§4).
	cache *volCache
}

type superblock struct {
	Magic     uint32
	NInodes   uint32
	NBlocks   uint64
	BitmapOff int64 // all offsets relative to base
	ITabOff   int64
	DataOff   int64
}

const sbSize = 4 + 4 + 8 + 8 + 8 + 8

func (s *superblock) encode() []byte {
	b := make([]byte, sbSize)
	binary.LittleEndian.PutUint32(b[0:], s.Magic)
	binary.LittleEndian.PutUint32(b[4:], s.NInodes)
	binary.LittleEndian.PutUint64(b[8:], s.NBlocks)
	binary.LittleEndian.PutUint64(b[16:], uint64(s.BitmapOff))
	binary.LittleEndian.PutUint64(b[24:], uint64(s.ITabOff))
	binary.LittleEndian.PutUint64(b[32:], uint64(s.DataOff))
	return b
}

func (s *superblock) decode(b []byte) {
	s.Magic = binary.LittleEndian.Uint32(b[0:])
	s.NInodes = binary.LittleEndian.Uint32(b[4:])
	s.NBlocks = binary.LittleEndian.Uint64(b[8:])
	s.BitmapOff = int64(binary.LittleEndian.Uint64(b[16:]))
	s.ITabOff = int64(binary.LittleEndian.Uint64(b[24:]))
	s.DataOff = int64(binary.LittleEndian.Uint64(b[32:]))
}

// Format initializes a public area of the given size at base within pm and
// returns the mounted volume. It creates the root directory.
func Format(env *sim.Env, pm *hw.PM, base, size int64, nInodes int) (*Vol, error) {
	itabBytes := int64(nInodes) * InodeSize
	itabBlocks := (itabBytes + BlockSize - 1) / BlockSize

	// Remaining space after superblock and inode table is split between the
	// bitmap and data blocks: each data block costs BlockSize bytes plus
	// one bitmap bit.
	remaining := size - BlockSize - itabBlocks*BlockSize
	if remaining < 8*BlockSize {
		return nil, fmt.Errorf("fs: volume too small (%d bytes)", size)
	}
	nBlocks := remaining * 8 / (8*BlockSize + 1)
	bitmapBlocks := (nBlocks/8 + BlockSize) / BlockSize
	for BlockSize+itabBlocks*BlockSize+bitmapBlocks*BlockSize+nBlocks*BlockSize > size {
		nBlocks--
	}

	v := &Vol{
		pm:   pm,
		base: base,
		sb: superblock{
			Magic:     volMagic,
			NInodes:   uint32(nInodes),
			NBlocks:   uint64(nBlocks),
			BitmapOff: BlockSize,
			ITabOff:   BlockSize + bitmapBlocks*BlockSize,
			DataOff:   BlockSize + bitmapBlocks*BlockSize + itabBlocks*BlockSize,
		},
		mu:     sim.NewResource(env, 1),
		bitmap: make([]byte, (nBlocks+7)/8),
		cache:  newVolCache(),
	}
	c := NoCostCtx(pm)
	c.Write(base, v.sb.encode())
	c.Write(base+v.sb.BitmapOff, v.bitmap)
	// Reserve data block 0: extent chains use block number 0 as "none".
	v.markRange(c, 0, 1, true)
	// Zero the inode table: an absent page reads zeros, durably.
	pm.Discard(base+v.sb.ITabOff, itabBlocks*BlockSize)
	// Create the root directory.
	root := Inode{Ino: RootIno, Type: TypeDir, Nlink: 2}
	v.writeInode(c, &root)
	return v, nil
}

// Mount opens a previously-formatted volume, rebuilding the in-memory
// bitmap mirror from PM. ctx charges the mount-time scan.
func Mount(env *sim.Env, ctx *Ctx, base int64) (*Vol, error) {
	v := &Vol{pm: ctx.PM, base: base, mu: sim.NewResource(env, 1), cache: newVolCache()}
	buf := make([]byte, sbSize)
	ctx.Read(base, buf)
	v.sb.decode(buf)
	if v.sb.Magic != volMagic {
		return nil, fmt.Errorf("fs: bad superblock magic %#x", v.sb.Magic)
	}
	v.bitmap = make([]byte, (v.sb.NBlocks+7)/8)
	ctx.Read(base+v.sb.BitmapOff, v.bitmap)
	return v, nil
}

// NBlocks returns the number of data blocks.
func (v *Vol) NBlocks() uint64 { return v.sb.NBlocks }

// NInodes returns the inode table capacity.
func (v *Vol) NInodes() uint32 { return v.sb.NInodes }

// Lock serializes a metadata update section.
func (v *Vol) Lock(p *sim.Proc, prio int) {
	if p == nil {
		return
	}
	v.mu.Acquire(p, prio)
}

// Unlock releases the metadata mutex.
func (v *Vol) Unlock(p *sim.Proc) {
	if p == nil {
		return
	}
	v.mu.Release()
}

// blockOff converts a data block number to a PM offset.
func (v *Vol) blockOff(blk uint64) int64 {
	if blk >= v.sb.NBlocks {
		panic(fmt.Sprintf("fs: block %d out of range (%d)", blk, v.sb.NBlocks))
	}
	return v.base + v.sb.DataOff + int64(blk)*BlockSize
}

func (v *Vol) inodeOff(ino Ino) int64 {
	if uint32(ino) >= v.sb.NInodes {
		panic(fmt.Sprintf("fs: inode %d out of range (%d)", ino, v.sb.NInodes))
	}
	return v.base + v.sb.ITabOff + int64(ino)*InodeSize
}
