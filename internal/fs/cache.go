package fs

import "sort"

// Index caching (§4): the file system layer caches inodes, directory and
// file indexes in DRAM "to avoid frequent access to host PM via PCIe" — and,
// for this reproduction, to keep lookups O(log n) instead of re-walking
// on-PM chains. The caches are write-through: every mutation updates PM
// first (through the costed context) and then the in-memory mirror, so a
// crash loses nothing and a remount rebuilds them lazily from PM.

type volCache struct {
	// extents mirrors each inode's extent chain, sorted by FileBlk.
	extents map[Ino][]Extent
	// dirs mirrors directory contents by name, with slot locations so
	// removals and insertions need no rescan.
	dirs map[Ino]*dirCache
}

type dirCache struct {
	ents map[string]dirLoc
	free []slotLoc
}

type dirLoc struct {
	ent DirEnt
	loc slotLoc
}

type slotLoc struct {
	blk  uint64
	slot int
}

func newVolCache() *volCache {
	return &volCache{
		extents: make(map[Ino][]Extent),
		dirs:    make(map[Ino]*dirCache),
	}
}

// loadExtents returns the cached extent list for an inode, reading the
// on-PM chain (charged to ctx) on first use.
func (v *Vol) loadExtents(c *Ctx, in *Inode) []Extent {
	if ents, ok := v.cache.extents[in.Ino]; ok {
		return ents
	}
	var ents []Extent
	blk := in.ExtHead
	for blk != 0 {
		c.Compute(extLookupCost)
		var h extHdr
		h, ents = v.readExtBlock(c, blk, ents)
		blk = h.Next
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].FileBlk < ents[j].FileBlk })
	v.cache.extents[in.Ino] = ents
	return ents
}

// cacheExtentAppend mirrors an on-PM append (with the same merge rule) into
// the cache, if loaded.
func (v *Vol) cacheExtentAppend(ino Ino, e Extent, merged bool) {
	ents, ok := v.cache.extents[ino]
	if !ok {
		return
	}
	if merged && len(ents) > 0 {
		// Find the extent that was extended: it ends where e begins.
		for i := len(ents) - 1; i >= 0; i-- {
			x := &ents[i]
			if x.FileBlk+uint64(x.Count) == e.FileBlk && x.BlkNo+uint64(x.Count) == e.BlkNo {
				x.Count += e.Count
				return
			}
		}
	}
	// Insert keeping FileBlk order.
	i := sort.Search(len(ents), func(i int) bool { return ents[i].FileBlk >= e.FileBlk })
	ents = append(ents, Extent{})
	copy(ents[i+1:], ents[i:])
	ents[i] = e
	v.cache.extents[ino] = ents
}

func (v *Vol) cacheExtentsDrop(ino Ino) {
	delete(v.cache.extents, ino)
}

// loadDir returns the cached directory state, scanning PM on first use.
func (v *Vol) loadDir(c *Ctx, din *Inode) *dirCache {
	if dc, ok := v.cache.dirs[din.Ino]; ok {
		return dc
	}
	dc := &dirCache{ents: make(map[string]dirLoc)}
	nBlks := (din.Size + BlockSize - 1) / BlockSize
	buf := make([]byte, BlockSize)
	for fb := uint64(0); fb < nBlks; fb++ {
		blk, ok := v.ExtentLookup(c, din, fb)
		if !ok {
			continue
		}
		c.Read(v.blockOff(blk), buf)
		c.Compute(dirScanOp * dirPerBlk)
		for s := 0; s < dirPerBlk; s++ {
			loc := slotLoc{blk: blk, slot: s}
			if e := decodeDirEnt(buf[s*DirEntSize:]); e.Ino != 0 {
				dc.ents[e.Name] = dirLoc{ent: e, loc: loc}
			} else {
				dc.free = append(dc.free, loc)
			}
		}
	}
	v.cache.dirs[din.Ino] = dc
	return dc
}

func (v *Vol) cacheDirDrop(dir Ino) {
	delete(v.cache.dirs, dir)
}
