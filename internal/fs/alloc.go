package fs

import (
	"fmt"
	"time"
)

// ErrNoSpace reports data-block exhaustion.
var ErrNoSpace = fmt.Errorf("fs: out of data blocks")

// AllocRange allocates up to want contiguous data blocks next-fit,
// returning the start block and the number obtained (>= 1 on success).
// Callers needing more loop. The in-memory bitmap mirror is scanned and
// changed bytes written through to PM.
func (v *Vol) AllocRange(c *Ctx, want int) (uint64, int, error) {
	if want < 1 {
		want = 1
	}
	n := v.sb.NBlocks
	// Scan from the next-fit pointer, wrapping once.
	scanned := uint64(0)
	pos := v.nextHit
	for scanned < n {
		if pos >= n {
			pos = 0
		}
		if v.bitGet(pos) {
			pos++
			scanned++
			continue
		}
		// Found a free block: extend the run.
		run := uint64(1)
		for run < uint64(want) && pos+run < n && !v.bitGet(pos+run) {
			run++
		}
		v.markRange(c, pos, run, true)
		v.nextHit = pos + run
		// Charge a small scan cost proportional to the allocation.
		c.Compute(time.Duration(run) * 10 * time.Nanosecond)
		return pos, int(run), nil
	}
	return 0, 0, ErrNoSpace
}

func (v *Vol) freeRange(c *Ctx, start, count uint64) {
	v.markRange(c, start, count, false)
}

// FreeCount returns the number of free data blocks (scans the mirror).
func (v *Vol) FreeCount() uint64 {
	var free uint64
	for i := uint64(0); i < v.sb.NBlocks; i++ {
		if !v.bitGet(i) {
			free++
		}
	}
	return free
}

func (v *Vol) bitGet(blk uint64) bool {
	return v.bitmap[blk/8]&(1<<(blk%8)) != 0
}

// markRange sets or clears bits and writes the affected bitmap bytes to PM.
func (v *Vol) markRange(c *Ctx, start, count uint64, set bool) {
	if start+count > v.sb.NBlocks {
		panic(fmt.Sprintf("fs: mark range %d+%d beyond %d blocks", start, count, v.sb.NBlocks))
	}
	for i := start; i < start+count; i++ {
		cur := v.bitGet(i)
		if set && cur {
			panic(fmt.Sprintf("fs: double allocation of block %d", i))
		}
		if !set && !cur {
			panic(fmt.Sprintf("fs: double free of block %d", i))
		}
		if set {
			v.bitmap[i/8] |= 1 << (i % 8)
		} else {
			v.bitmap[i/8] &^= 1 << (i % 8)
		}
	}
	lo, hi := start/8, (start+count-1)/8
	c.Write(v.base+v.sb.BitmapOff+int64(lo), v.bitmap[lo:hi+1])
}
