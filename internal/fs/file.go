package fs

import (
	"fmt"
	"time"
)

// CopyFunc moves payload bytes to an absolute PM offset in the public data
// area. Publication engines differ here: host CPU memcpy, I/OAT DMA, or
// RDMA across PCIe from an isolated NICFS. A nil CopyFunc uses the context
// directly (CPU store path).
type CopyFunc func(dstOff int64, src []byte)

// cpuCopyBW is the effective bandwidth of one host core storing into PM
// (Optane write-combining limits, see node.Spec.PMStoreBW).
const cpuCopyBW = 1.6e9

// PublishWrite applies a logged write of data at byte offset off in file
// ino to the public area: allocating blocks for holes, updating the extent
// chain and inode under the volume lock, then copying the payload with cp.
// Re-applying the same write is idempotent (publication restarts after a
// crash replay the log).
func (v *Vol) PublishWrite(c *Ctx, ino Ino, off uint64, data []byte, cp CopyFunc) error {
	if cp == nil {
		cp = func(dstOff int64, src []byte) {
			c.Compute(time.Duration(float64(len(src)) / cpuCopyBW * float64(time.Second)))
			c.Write(dstOff, src)
		}
	}
	end := off + uint64(len(data))
	firstBlk := off / BlockSize
	lastBlk := (end + BlockSize - 1) / BlockSize

	v.Lock(c.P, c.Prio)
	in, err := v.ReadInode(c, ino)
	if err != nil {
		v.Unlock(c.P)
		return err
	}
	var runBuf, resolvedBuf [4]MappedRun
	runs := v.LookupRange(c, &in, firstBlk, lastBlk-firstBlk, runBuf[:0])
	// Fill holes with fresh allocations.
	resolved := resolvedBuf[:0]
	for _, r := range runs {
		if r.Mapped {
			resolved = append(resolved, r)
			continue
		}
		need := r.Count
		fb := r.FileBlk
		for need > 0 {
			start, got, err := v.AllocRange(c, int(need))
			if err != nil {
				v.Unlock(c.P)
				return err
			}
			if err := v.ExtentAppend(c, &in, Extent{FileBlk: fb, BlkNo: start, Count: uint32(got)}); err != nil {
				v.Unlock(c.P)
				return err
			}
			resolved = append(resolved, MappedRun{FileBlk: fb, Count: uint64(got), BlkNo: start, Mapped: true})
			fb += uint64(got)
			need -= uint64(got)
		}
	}
	if end > in.Size {
		in.Size = end
	}
	in.Mtime = int64(c.PM.Env.Now())
	v.writeInode(c, &in)
	v.Unlock(c.P)

	// Copy payload outside the metadata lock.
	for _, r := range resolved {
		for i := uint64(0); i < r.Count; i++ {
			fb := r.FileBlk + i
			blkStart := fb * BlockSize
			// Intersect [off,end) with this block.
			lo, hi := off, end
			if blkStart > lo {
				lo = blkStart
			}
			if blkStart+BlockSize < hi {
				hi = blkStart + BlockSize
			}
			if lo >= hi {
				continue
			}
			cp(v.blockOff(r.BlkNo+i)+int64(lo-blkStart), data[lo-off:hi-off])
		}
	}
	return nil
}

// ReadFile reads up to len(dst) bytes at byte offset off from the published
// file, returning the count (short at EOF).
//
//linefs:hotpath
func (v *Vol) ReadFile(c *Ctx, ino Ino, off uint64, dst []byte) (int, error) {
	in, err := v.ReadInode(c, ino)
	if err != nil {
		return 0, err
	}
	if off >= in.Size {
		return 0, nil
	}
	n := uint64(len(dst))
	if off+n > in.Size {
		n = in.Size - off
	}
	// Resolve the whole window with one extent-chain walk, then read each
	// mapped run contiguously (runs span many blocks for sequential data).
	firstBlk := off / BlockSize
	lastBlk := (off + n + BlockSize - 1) / BlockSize
	var runBuf [4]MappedRun
	for _, r := range v.LookupRange(c, &in, firstBlk, lastBlk-firstBlk, runBuf[:0]) {
		runStart := r.FileBlk * BlockSize
		runEnd := (r.FileBlk + r.Count) * BlockSize
		lo, hi := off, off+n
		if runStart > lo {
			lo = runStart
		}
		if runEnd < hi {
			hi = runEnd
		}
		if lo >= hi {
			continue
		}
		out := dst[lo-off : hi-off]
		if !r.Mapped {
			for i := range out {
				out[i] = 0
			}
			continue
		}
		c.Read(v.blockOff(r.BlkNo)+int64(lo-runStart), out)
	}
	return int(n), nil
}

// Truncate sets the file size; shrinking to zero frees all data blocks.
// (Partial shrinks keep blocks mapped, as lazy reclamation would.)
func (v *Vol) Truncate(c *Ctx, ino Ino, size uint64) error {
	v.Lock(c.P, c.Prio)
	defer v.Unlock(c.P)
	in, err := v.ReadInode(c, ino)
	if err != nil {
		return err
	}
	var runs []Extent
	if size == 0 && in.ExtHead != 0 {
		runs = v.chainRuns(c, in.ExtHead)
		in.ExtHead, in.ExtTail = 0, 0
		v.cacheExtentsDrop(ino)
	}
	in.Size = size
	v.writeInode(c, &in)
	v.release(c, runs)
	return nil
}

// CreateInode installs a fresh inode record of the given type. Re-creation
// of an identical live inode is idempotent.
func (v *Vol) CreateInode(c *Ctx, ino Ino, typ FileType) error {
	existing, err := v.ReadInode(c, ino)
	if err == nil {
		if existing.Type == typ {
			return nil // idempotent republish
		}
		return fmt.Errorf("fs: inode %d exists with type %d", ino, existing.Type)
	}
	nlink := uint16(1)
	if typ == TypeDir {
		nlink = 2
	}
	in := Inode{Ino: ino, Type: typ, Nlink: nlink, Mtime: int64(c.PM.Env.Now())}
	v.writeInode(c, &in)
	return nil
}
