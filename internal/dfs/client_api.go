package dfs

import (
	"fmt"
	"sort"
	"time"

	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/sim"
)

// fileFD is an open file description.
type fileFD struct {
	ino  fs.Ino
	path string
	off  uint64
	wr   bool
}

// Errors returned by the Client API.
var (
	ErrBadFD = fmt.Errorf("dfs: bad file descriptor")
)

// Create makes a new file and opens it for writing. The create is logged;
// publication makes it visible to other clients.
func (l *Client) Create(p *sim.Proc, pth string) (int, error) {
	l.syscall(p)
	dir, name := splitDir(pth)
	if len(name) > fs.MaxName {
		return -1, fs.ErrNameLen
	}
	dino, dtyp, err := l.resolve(p, dir)
	if err != nil {
		return -1, err
	}
	if dtyp != fs.TypeDir {
		return -1, fs.ErrNotDir
	}
	if _, _, err := l.resolve(p, pth); err == nil {
		return -1, fs.ErrExist
	}
	if err := l.ensureLease(p, dino, lease.Write); err != nil {
		return -1, err
	}
	ino, err := l.allocIno()
	if err != nil {
		return -1, err
	}
	if err := l.ensureLease(p, ino, lease.Write); err != nil {
		return -1, err
	}
	at, err := l.append(p, &fs.Entry{Type: fs.OpCreate, Ino: ino, PIno: dino, Name: name})
	if err != nil {
		return -1, err
	}
	di := l.dirtyInode(ino)
	di.typ, di.exists, di.off = fs.TypeFile, true, at
	di.hasSz, di.size = true, 0
	l.dirtyDir(dino)[name] = dirDelta{ino: ino, typ: fs.TypeFile, off: at}
	return l.newFD(ino, pth, true), nil
}

// Mkdir creates a directory.
func (l *Client) Mkdir(p *sim.Proc, pth string) error {
	l.syscall(p)
	dir, name := splitDir(pth)
	if len(name) > fs.MaxName {
		return fs.ErrNameLen
	}
	dino, _, err := l.resolve(p, dir)
	if err != nil {
		return err
	}
	if _, _, err := l.resolve(p, pth); err == nil {
		return fs.ErrExist
	}
	if err := l.ensureLease(p, dino, lease.Write); err != nil {
		return err
	}
	ino, err := l.allocIno()
	if err != nil {
		return err
	}
	at, err := l.append(p, &fs.Entry{Type: fs.OpMkdir, Ino: ino, PIno: dino, Name: name})
	if err != nil {
		return err
	}
	di := l.dirtyInode(ino)
	di.typ, di.exists, di.off = fs.TypeDir, true, at
	l.dirtyDir(dino)[name] = dirDelta{ino: ino, typ: fs.TypeDir, off: at}
	return nil
}

// Open opens an existing file. Opening a published file performs the NICFS
// permission check RPC (§3.6) — the cost Varmail pays on every mailbox
// open; a file this client created and has not yet published resolves
// locally.
func (l *Client) Open(p *sim.Proc, pth string, write bool) (int, error) {
	l.syscall(p)
	ino, typ, err := l.resolve(p, pth)
	if err != nil {
		return -1, err
	}
	if typ != fs.TypeFile {
		return -1, fmt.Errorf("dfs: open non-file %q", pth)
	}
	if _, own := l.dirty.inodes[ino]; !own {
		l.OpenRPCs++
		if err := l.backend.OpenCheck(p, pth); err != nil {
			return -1, err
		}
	}
	mode := lease.Read
	if write {
		mode = lease.Write
	}
	if err := l.ensureLease(p, ino, mode); err != nil {
		return -1, err
	}
	return l.newFD(ino, pth, write), nil
}

func (l *Client) newFD(ino fs.Ino, pth string, wr bool) int {
	fd := l.nextFD
	l.nextFD++
	l.fds[fd] = &fileFD{ino: ino, path: pth, wr: wr}
	return fd
}

// Close releases a descriptor.
func (l *Client) Close(p *sim.Proc, fd int) error {
	l.syscall(p)
	if _, ok := l.fds[fd]; !ok {
		return ErrBadFD
	}
	delete(l.fds, fd)
	return nil
}

// Unlink removes a file.
func (l *Client) Unlink(p *sim.Proc, pth string) error {
	l.syscall(p)
	dir, name := splitDir(pth)
	dino, _, err := l.resolve(p, dir)
	if err != nil {
		return err
	}
	ino, typ, err := l.resolve(p, pth)
	if err != nil {
		return err
	}
	if typ == fs.TypeDir {
		return fmt.Errorf("dfs: unlink of directory %q", pth)
	}
	if err := l.ensureLease(p, dino, lease.Write); err != nil {
		return err
	}
	if err := l.ensureLease(p, ino, lease.Write); err != nil {
		return err
	}
	at, err := l.append(p, &fs.Entry{Type: fs.OpUnlink, Ino: ino, PIno: dino, Name: name})
	if err != nil {
		return err
	}
	di := l.dirtyInode(ino)
	di.exists, di.off = false, at
	l.dirtyDir(dino)[name] = dirDelta{del: true, off: at}
	l.dropBlockIdx(ino)
	l.recycleIno(ino)
	return nil
}

// Rmdir removes an empty directory.
func (l *Client) Rmdir(p *sim.Proc, pth string) error {
	l.syscall(p)
	dir, name := splitDir(pth)
	dino, _, err := l.resolve(p, dir)
	if err != nil {
		return err
	}
	ino, typ, err := l.resolve(p, pth)
	if err != nil {
		return err
	}
	if typ != fs.TypeDir {
		return fs.ErrNotDir
	}
	if err := l.ensureLease(p, dino, lease.Write); err != nil {
		return err
	}
	at, err := l.append(p, &fs.Entry{Type: fs.OpRmdir, Ino: ino, PIno: dino, Name: name})
	if err != nil {
		return err
	}
	di := l.dirtyInode(ino)
	di.exists, di.off = false, at
	l.dirtyDir(dino)[name] = dirDelta{del: true, off: at}
	l.recycleIno(ino)
	return nil
}

// Rename moves a file or directory.
func (l *Client) Rename(p *sim.Proc, oldPath, newPath string) error {
	l.syscall(p)
	odir, oname := splitDir(oldPath)
	ndir, nname := splitDir(newPath)
	if len(nname) > fs.MaxName {
		return fs.ErrNameLen
	}
	odino, _, err := l.resolve(p, odir)
	if err != nil {
		return err
	}
	ndino, _, err := l.resolve(p, ndir)
	if err != nil {
		return err
	}
	ino, typ, err := l.resolve(p, oldPath)
	if err != nil {
		return err
	}
	if err := l.ensureLease(p, odino, lease.Write); err != nil {
		return err
	}
	if err := l.ensureLease(p, ndino, lease.Write); err != nil {
		return err
	}
	at, err := l.append(p, &fs.Entry{
		Type: fs.OpRename, Ino: ino,
		PIno: odino, Name: oname,
		PIno2: ndino, Name2: nname,
	})
	if err != nil {
		return err
	}
	l.dirtyDir(odino)[oname] = dirDelta{del: true, off: at}
	l.dirtyDir(ndino)[nname] = dirDelta{ino: ino, typ: typ, off: at}
	return nil
}

// Truncate sets a file's size.
func (l *Client) Truncate(p *sim.Proc, pth string, size uint64) error {
	l.syscall(p)
	ino, typ, err := l.resolve(p, pth)
	if err != nil {
		return err
	}
	if typ != fs.TypeFile {
		return fmt.Errorf("dfs: truncate non-file")
	}
	if err := l.ensureLease(p, ino, lease.Write); err != nil {
		return err
	}
	at, err := l.append(p, &fs.Entry{Type: fs.OpTruncate, Ino: ino, Off: size})
	if err != nil {
		return err
	}
	di := l.dirtyInode(ino)
	di.hasSz, di.size, di.off = true, size, at
	if size == 0 {
		l.dropBlockIdx(ino)
	}
	return nil
}

func (l *Client) dropBlockIdx(ino fs.Ino) {
	for k, pieces := range l.blockIdx {
		if k.ino == ino {
			l.dropKey(k, pieces)
		}
	}
}

// dropKey deletes k from the index and keeps its piece list for reuse.
func (l *Client) dropKey(k blockKey, pieces []logPiece) {
	delete(l.blockIdx, k)
	l.freePieces = append(l.freePieces, pieces[:0])
}

// WriteAt logs a write at an absolute offset.
func (l *Client) WriteAt(p *sim.Proc, fd int, off uint64, data []byte) (int, error) {
	f, ok := l.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	if !f.wr {
		return 0, fmt.Errorf("dfs: fd %d not writable", fd)
	}
	l.syscall(p)
	if err := l.ensureLease(p, f.ino, lease.Write); err != nil {
		return 0, err
	}
	// The entry borrows data: Append encodes it into the log before
	// returning (and the log keeps its own wire bytes), so no defensive
	// copy is needed.
	at, err := l.append(p, &fs.Entry{Type: fs.OpWrite, Ino: f.ino, Off: off, Data: data})
	if err != nil {
		return 0, err
	}
	l.indexWrite(f.ino, at, off, data)
	di := l.dirtyInode(f.ino)
	end := off + uint64(len(data))
	if !di.hasSz {
		// Seed the dirty size from the published size.
		ctx := l.hostCtx(p)
		if in, err := l.vol.ReadInode(&ctx, f.ino); err == nil {
			di.size = in.Size
		}
		di.hasSz = true
	}
	if end > di.size {
		di.size = end
	}
	di.off = at
	l.BytesWritten += int64(len(data))
	return len(data), nil
}

// Write appends at the descriptor's position.
func (l *Client) Write(p *sim.Proc, fd int, data []byte) (int, error) {
	f, ok := l.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	n, err := l.WriteAt(p, fd, f.off, data)
	f.off += uint64(n)
	return n, err
}

// indexWrite records the new log pieces in the fast-read hash table. A new
// key takes a piece list that a dropped key left behind.
//
//linefs:hotpath
func (l *Client) indexWrite(ino fs.Ino, entryOff, off uint64, data []byte) {
	// The payload begins after the entry header and name fields (none for
	// writes).
	payloadBase := entryOff + uint64(fs.EntryHeaderSize)
	end := off + uint64(len(data))
	for blk := off / fs.BlockSize; blk*fs.BlockSize < end; blk++ {
		blkStart := blk * fs.BlockSize
		lo, hi := off, end
		if blkStart > lo {
			lo = blkStart
		}
		if blkStart+fs.BlockSize < hi {
			hi = blkStart + fs.BlockSize
		}
		k := blockKey{ino: ino, blk: blk}
		pieces, ok := l.blockIdx[k]
		if n := len(l.freePieces); !ok && n > 0 {
			pieces, l.freePieces = l.freePieces[n-1], l.freePieces[:n-1]
		}
		pieces = append(pieces, logPiece{
			entryOff:   entryOff,
			payloadOff: payloadBase + (lo - off),
			blkOff:     uint32(lo - blkStart),
			ln:         uint32(hi - lo),
		})
		l.blockIdx[k] = pieces
	}
}

// ReadAt reads at an absolute offset, merging unpublished log data over
// the published file image (§3.2 two-step read).
func (l *Client) ReadAt(p *sim.Proc, fd int, off uint64, dst []byte) (int, error) {
	f, ok := l.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	l.syscall(p)
	if err := l.ensureLease(p, f.ino, lease.Read); err != nil {
		return 0, err
	}
	_, size, err := l.statIno(p, f.ino)
	if err != nil {
		return 0, err
	}
	if off >= size || len(dst) == 0 {
		return 0, nil
	}
	n := uint64(len(dst))
	if off+n > size {
		n = size - off
	}
	ctx := l.hostCtx(p)
	// Per-block index lookup and mapping cost.
	nBlocks := (off+n-1)/fs.BlockSize - off/fs.BlockSize + 1
	ctx.Compute(time.Duration(nBlocks) * 800 * time.Nanosecond)
	// Fast path: no unpublished pieces anywhere in the window — one
	// public-area read covers everything.
	anyPieces := false
	for blk := off / fs.BlockSize; blk <= (off+n-1)/fs.BlockSize; blk++ {
		if len(l.blockIdx[blockKey{ino: f.ino, blk: blk}]) > 0 {
			anyPieces = true
			break
		}
	}
	if !anyPieces {
		if _, err := l.vol.ReadFile(&ctx, f.ino, off, dst[:n]); err != nil {
			if err != fs.ErrNoInode {
				return 0, err
			}
			// Not yet published: the requested range is all holes.
			for i := range dst[:n] {
				dst[i] = 0
			}
		}
		l.BytesRead += int64(n)
		return int(n), nil
	}
	read := uint64(0)
	for read < n {
		blk := (off + read) / fs.BlockSize
		inBlk := (off + read) % fs.BlockSize
		chunk := uint64(fs.BlockSize) - inBlk
		if chunk > n-read {
			chunk = n - read
		}
		out := dst[read : read+chunk]
		pieces := l.blockIdx[blockKey{ino: f.ino, blk: blk}]
		covered := false
		if len(pieces) > 0 {
			// Common fast path: the newest piece alone covers the request.
			last := pieces[len(pieces)-1]
			if uint64(last.blkOff) <= inBlk && uint64(last.blkOff)+uint64(last.ln) >= inBlk+chunk {
				l.log.ReadRawInto(&ctx, last.payloadOff+(inBlk-uint64(last.blkOff)), out)
				covered = true
			}
		}
		if !covered {
			if len(pieces) == 0 {
				if _, err := l.vol.ReadFile(&ctx, f.ino, off+read, out); err != nil {
					return int(read), err
				}
			} else {
				// Merge: published base, then pieces in log order.
				base := make([]byte, fs.BlockSize)
				_, _ = l.vol.ReadFile(&ctx, f.ino, blk*fs.BlockSize, base)
				for _, pc := range pieces {
					l.log.ReadRawInto(&ctx, pc.payloadOff, base[pc.blkOff:pc.blkOff+pc.ln])
				}
				copy(out, base[inBlk:inBlk+chunk])
			}
		}
		read += chunk
	}
	l.BytesRead += int64(read)
	return int(read), nil
}

// Read reads at the descriptor's position.
func (l *Client) Read(p *sim.Proc, fd int, dst []byte) (int, error) {
	f, ok := l.fds[fd]
	if !ok {
		return 0, ErrBadFD
	}
	n, err := l.ReadAt(p, fd, f.off, dst)
	f.off += uint64(n)
	return n, err
}

// Seek sets the descriptor position.
func (l *Client) Seek(fd int, off uint64) error {
	f, ok := l.fds[fd]
	if !ok {
		return ErrBadFD
	}
	f.off = off
	return nil
}

// Fsync makes every logged update of this client durable on all replicas
// before returning (§3.3.2).
func (l *Client) Fsync(p *sim.Proc, fd int) error {
	if _, ok := l.fds[fd]; !ok {
		return ErrBadFD
	}
	l.syscall(p)
	l.Fsyncs++
	// Ring any deferred doorbell first so the covered chunks enter the
	// async pipelines at chunk granularity; the fsync then only carries
	// the remainder on the sync path.
	if len(l.marks) > 0 {
		l.notifyChunkReady(p)
	}
	l.sinceNotify = 0
	head, cuts := l.log.Head(), l.cuts
	// A tail under a quarter piece rides with the piece before it: its own
	// trip down the chain would cost more than overlapping it saves.
	if n := len(cuts); n > 0 && head-cuts[n-1] < uint64(l.cfg.FsyncPiece/4) {
		cuts = cuts[:n-1]
	}
	l.cuts, l.pieceFrom = l.cuts[:0], head
	return l.backend.Fsync(p, head, cuts)
}

// Stat reports a file's type and size, merging unpublished state.
func (l *Client) Stat(p *sim.Proc, pth string) (fs.FileType, uint64, error) {
	l.syscall(p)
	ino, _, err := l.resolve(p, pth)
	if err != nil {
		return 0, 0, err
	}
	return l.statIno(p, ino)
}

// ReadDir lists a directory, merging unpublished entries.
func (l *Client) ReadDir(p *sim.Proc, pth string) ([]fs.DirEnt, error) {
	l.syscall(p)
	ino, typ, err := l.resolve(p, pth)
	if err != nil {
		return nil, err
	}
	if typ != fs.TypeDir {
		return nil, fs.ErrNotDir
	}
	ctx := l.hostCtx(p)
	ents, err := l.vol.DirList(&ctx, ino)
	if err != nil && err != fs.ErrNoInode {
		return nil, err
	}
	seen := make(map[string]bool, len(ents))
	var out []fs.DirEnt
	deltas := l.dirty.dirs[ino]
	for _, e := range ents {
		if d, ok := deltas[e.Name]; ok && d.del {
			continue
		}
		out = append(out, e)
		seen[e.Name] = true
	}
	// Unpublished creations merge in sorted name order so the readdir
	// result is deterministic (the published prefix is already sorted by
	// the volume's DirList).
	added := make([]string, 0, len(deltas))
	for name, d := range deltas {
		if d.del || seen[name] {
			continue
		}
		added = append(added, name)
	}
	sort.Strings(added)
	for _, name := range added {
		d := deltas[name]
		out = append(out, fs.DirEnt{Ino: d.ino, Type: d.typ, Name: name})
	}
	return out, nil
}
