package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// blockSize is the stamping granularity: every workload writes whole 4 KiB
// blocks (it equals fs.BlockSize, so a block never straddles two extents).
const blockSize = 4096

// stampSize is the per-block header: magic, file, block index, version.
const (
	stampSize  = 24
	stampMagic = 0x4c46534d // "LFSM"
)

// poolSize is the length of the seeded byte pool block bodies are sliced
// from. Slicing (a memcpy) keeps the load generator's own host cost far
// below the cost of the file-system call it feeds.
const poolSize = 1 << 20

// generator makes every payload byte from the seed: a block's body is the
// pool window chosen by hashing (seed, file, block, version), so a reader
// can regenerate and compare the whole block, not just its stamp.
type generator struct {
	seed uint64
	pool []byte
}

// newGenerator builds the pool. A compressible pool interleaves seeded
// random runs with zero and text runs (the Figure 9 record shape) so that
// LZW removes about half of it; the plain pool is incompressible.
func newGenerator(seed int64, compressible bool) *generator {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]byte, poolSize+blockSize)
	if !compressible {
		rng.Read(pool)
		return &generator{seed: uint64(seed), pool: pool}
	}
	text := []byte("key=0000000000 val=linefs-sort-record ")
	// Run kinds cycle and the three runs of one cycle share a (seeded)
	// length, so every seed's pool is one third incompressible bytes.
	for off, kind, run := 0, 0, 0; off < len(pool); kind++ {
		if kind%3 == 0 {
			run = 256 + rng.Intn(768)
		}
		dst := pool[off:min(off+run, len(pool))]
		switch kind % 3 {
		case 0: // incompressible
			rng.Read(dst)
		case 1: // repeated text
			for i := range dst {
				dst[i] = text[i%len(text)]
			}
		default: // zero run
		}
		off += len(dst)
	}
	return &generator{seed: uint64(seed), pool: pool}
}

// mix is splitmix64's finalizer over the block identity.
func (g *generator) mix(file uint32, blk uint64, ver uint32) uint64 {
	x := g.seed ^ uint64(file)<<40 ^ blk<<8 ^ uint64(ver)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (g *generator) body(file uint32, blk uint64, ver uint32) []byte {
	off := g.mix(file, blk, ver) % poolSize
	return g.pool[off : off+blockSize-stampSize]
}

// fill writes one stamped block into dst (len blockSize).
func (g *generator) fill(dst []byte, file uint32, blk uint64, ver uint32) {
	binary.LittleEndian.PutUint32(dst[0:], stampMagic)
	binary.LittleEndian.PutUint32(dst[4:], file)
	binary.LittleEndian.PutUint64(dst[8:], blk)
	binary.LittleEndian.PutUint32(dst[16:], ver)
	binary.LittleEndian.PutUint32(dst[20:], 0)
	copy(dst[stampSize:], g.body(file, blk, ver))
}

// check reports whether blk holds exactly what fill(file, blk, ver) wrote.
// Version 0 means never written: the block must read as zeros.
func (g *generator) check(got []byte, file uint32, blk uint64, ver uint32) bool {
	if ver == 0 {
		for _, b := range got {
			if b != 0 {
				return false
			}
		}
		return true
	}
	return binary.LittleEndian.Uint32(got[0:]) == stampMagic &&
		binary.LittleEndian.Uint32(got[4:]) == file &&
		binary.LittleEndian.Uint64(got[8:]) == blk &&
		binary.LittleEndian.Uint32(got[16:]) == ver &&
		bytes.Equal(got[stampSize:], g.body(file, blk, ver))
}

// fileModel is the benchmark's own record of what a file must contain: the
// current version of every block and the current length. Versions survive
// unlink+create, so stale data from an earlier incarnation never verifies.
type fileModel struct {
	id     uint32
	path   string
	ver    []uint32
	blocks int // current size in blocks; 0 after unlink
	live   bool
}

// bump advances the versions of blocks [blk, blk+n) for a write and extends
// the file if the write reaches past its end.
func (f *fileModel) bump(blk, n int) {
	for len(f.ver) < blk+n {
		f.ver = append(f.ver, 0)
	}
	for i := blk; i < blk+n; i++ {
		f.ver[i]++
	}
	if blk+n > f.blocks {
		f.blocks = blk + n
	}
}
