// Package dfs implements the client-side file system library shared by
// LineFS and the Assise baseline (the paper's LibFS, §3.2): interception of
// file system calls, persistence of data and metadata into a client-private
// PM operational log, an in-memory block index plus a dirty-namespace
// overlay so a client observes its own unpublished updates, and a read path
// that merges log data over the mmap'd public area.
//
// System-specific behaviour — who arbitrates leases, how fsync replicates,
// who publishes and reclaims the log — is behind the Backend interface:
// LineFS routes these to NICFS on the SmartNIC, Assise to the host-based
// SharedFS.
package dfs

import (
	"fmt"
	"path"
	"time"

	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/sim"
)

// Backend is the system half behind the client library.
type Backend interface {
	// AcquireLease asks the arbiter for a lease; ok=false means conflicting
	// holders are being revoked and the client should retry.
	AcquireLease(p *sim.Proc, ino fs.Ino, mode lease.Mode) (ok bool, err error)
	// OpenCheck performs the permission check for opening a published file.
	OpenCheck(p *sim.Proc, pth string) error
	// ChunkReady notifies that the log has grown to head (asynchronous).
	// marks are entry-aligned intermediate chunk boundaries accumulated
	// since the previous notification (oldest first, all < head): one
	// coalesced doorbell submits several chunks, amortizing the backend's
	// per-notification dispatch cost. Backends that replicate at
	// notification granularity may ignore marks. The slice is reused by
	// the caller: a backend that retains it past the call must copy.
	ChunkReady(p *sim.Proc, head uint64, marks []uint64)
	// Fsync makes everything up to head durable per the system's
	// guarantees (replicated on all chain members) before returning. cuts
	// are entry boundaries after the last notification (oldest first, all
	// < head), Config.FsyncPiece apart, and nil when that is 0: a backend
	// that pipelines replication may send the range as those pieces. The
	// slice is reused, like marks.
	Fsync(p *sim.Proc, head uint64, cuts []uint64) error
}

// Config wires a client to its node's resources.
type Config struct {
	ID  string
	Log *fs.LogArea
	Vol *fs.Vol
	// HostCtx builds the context of a host-core actor, by value: the
	// caller keeps it in its own frame (DESIGN.md §10).
	HostCtx func(p *sim.Proc) fs.Ctx
	// Syscall charges one intercepted call's CPU cost.
	Syscall func(p *sim.Proc)
	InoBase fs.Ino
	InoMax  int
	// ChunkSize paces ChunkReady notifications.
	ChunkSize int
	// NotifyChunks is the submission-side doorbell coalescing degree, which
	// the daemon fills in: the client accumulates this many entry-aligned
	// chunk boundaries before ringing one ChunkReady doorbell carrying all of
	// them. Values <= 1 ring per chunk boundary.
	NotifyChunks int
	// FsyncPiece is the most log bytes in one piece of an fsync's range (a
	// single larger entry aside), which the daemon fills in too: the client
	// cuts the range it hands Backend.Fsync at entry boundaries this far
	// apart, so that a piece's fetch, wire hops and persists overlap its
	// neighbours'. 0 takes the range whole: no cuts are recorded.
	FsyncPiece int
	LeaseTTL   time.Duration
}

// Client is one application process's file system handle.
type Client struct {
	backend Backend
	cfg     Config

	log *fs.LogArea
	vol *fs.Vol

	inoNext int
	// inoFree recycles inode numbers released by this client's unlinks:
	// the log orders the unlink before any re-use, so publication applies
	// free-then-create in order.
	inoFree []fs.Ino

	// blockIdx locates unpublished file data in the log: the fast-read
	// hash table of §4.
	blockIdx map[blockKey][]logPiece
	// freePieces keeps the emptied piece lists of dropped index keys for
	// indexWrite to take for new ones.
	freePieces [][]logPiece
	dirty      *dirtyNS

	fds    map[int]*fileFD
	nextFD int

	leases map[fs.Ino]leaseInfo

	// sinceNotify counts log bytes appended since the last chunk-ready
	// boundary; marks holds the entry-aligned chunk boundaries accumulated
	// since the last doorbell (doorbell coalescing, see Config.NotifyChunks).
	sinceNotify int64
	marks       []uint64

	// cuts holds the Config.FsyncPiece boundaries of the log written since
	// the last doorbell (only the client knows where entries end); pieceFrom
	// is where the running piece starts.
	cuts      []uint64
	pieceFrom uint64

	spaceFreed *sim.Event

	env *sim.Env

	// Stats.
	BytesWritten int64
	BytesRead    int64
	Fsyncs       int64
	OpenRPCs     int64
	LeaseRPCs    int64
}

// NewClient builds a client over a backend.
func NewClient(env *sim.Env, backend Backend, cfg Config) *Client {
	return &Client{
		backend:    backend,
		cfg:        cfg,
		log:        cfg.Log,
		vol:        cfg.Vol,
		blockIdx:   make(map[blockKey][]logPiece),
		dirty:      newDirtyNS(),
		fds:        make(map[int]*fileFD),
		nextFD:     3,
		leases:     make(map[fs.Ino]leaseInfo),
		pieceFrom:  cfg.Log.Head(),
		spaceFreed: sim.NewEvent(env),
		env:        env,
	}
}

// Log exposes the client's private log (diagnostics and backends).
func (l *Client) Log() *fs.LogArea { return l.log }

type blockKey struct {
	ino fs.Ino
	blk uint64
}

// logPiece records one unpublished write's bytes for part of a block.
type logPiece struct {
	entryOff   uint64 // entry's logical log offset (pruned by reclaim)
	payloadOff uint64 // logical log offset of the piece's first byte
	blkOff     uint32 // offset within the file block
	ln         uint32
}

type leaseInfo struct {
	mode   lease.Mode
	expiry sim.Time
}

// dirtyNS overlays unpublished namespace and size state over the public
// area so a client observes its own operations immediately.
type dirtyNS struct {
	inodes map[fs.Ino]*dInode
	dirs   map[fs.Ino]map[string]dirDelta
}

type dInode struct {
	typ    fs.FileType
	size   uint64
	hasSz  bool
	exists bool
	off    uint64 // log offset of the latest update
}

type dirDelta struct {
	ino fs.Ino
	typ fs.FileType
	del bool
	off uint64
}

func newDirtyNS() *dirtyNS {
	return &dirtyNS{
		inodes: make(map[fs.Ino]*dInode),
		dirs:   make(map[fs.Ino]map[string]dirDelta),
	}
}

func (l *Client) hostCtx(p *sim.Proc) fs.Ctx { return l.cfg.HostCtx(p) }

func (l *Client) syscall(p *sim.Proc) {
	if l.cfg.Syscall != nil {
		l.cfg.Syscall(p)
	}
}

// OnReclaim is invoked by the backend when the log has been published and
// replicated through upTo: truncate the ring and prune overlays.
func (l *Client) OnReclaim(p *sim.Proc, upTo uint64) {
	if upTo <= l.log.Tail() {
		return
	}
	ctx := l.hostCtx(p)
	l.log.Reclaim(&ctx, upTo)
	l.prune(upTo)
	l.spaceFreed.Trigger(nil)
	l.spaceFreed = sim.NewEvent(l.env)
}

// OnRevoke is invoked by the backend when the arbiter revokes a lease.
func (l *Client) OnRevoke(ino fs.Ino) {
	delete(l.leases, ino)
}

// prune drops index and dirty entries whose log records were published.
//
//linefs:hotpath
func (l *Client) prune(upTo uint64) {
	for k, pieces := range l.blockIdx {
		kept := pieces[:0]
		for _, pc := range pieces {
			if pc.entryOff >= upTo {
				kept = append(kept, pc)
			}
		}
		if len(kept) == 0 {
			l.dropKey(k, pieces)
		} else {
			l.blockIdx[k] = kept
		}
	}
	for ino, di := range l.dirty.inodes {
		if di.off < upTo {
			delete(l.dirty.inodes, ino)
		}
	}
	for dir, m := range l.dirty.dirs {
		for name, d := range m {
			if d.off < upTo {
				delete(m, name)
			}
		}
		if len(m) == 0 {
			delete(l.dirty.dirs, dir)
		}
	}
}

// ensureLease obtains (or refreshes) a lease, retrying with backoff while
// conflicting holders are revoked.
func (l *Client) ensureLease(p *sim.Proc, ino fs.Ino, mode lease.Mode) error {
	ttl := l.cfg.LeaseTTL
	if li, ok := l.leases[ino]; ok {
		strongEnough := li.mode == lease.Write || li.mode == mode
		if strongEnough && p.Now() < li.expiry-sim.Time(ttl/2) {
			return nil
		}
	}
	for attempt := 0; ; attempt++ {
		l.LeaseRPCs++
		ok, err := l.backend.AcquireLease(p, ino, mode)
		if err != nil {
			return err
		}
		if ok {
			l.leases[ino] = leaseInfo{mode: mode, expiry: p.Now() + sim.Time(ttl)}
			return nil
		}
		if attempt > 100 {
			return fmt.Errorf("dfs: lease on inode %d unobtainable", ino)
		}
		p.Sleep(time.Duration(attempt+1) * 50 * time.Microsecond)
	}
}

// append logs one operation, handling a full log with backpressure.
func (l *Client) append(p *sim.Proc, e *fs.Entry) (uint64, error) {
	ctx := l.hostCtx(p)
	for {
		at, err := l.log.Append(&ctx, e)
		if err == nil {
			if piece := uint64(l.cfg.FsyncPiece); piece > 0 && at > l.pieceFrom && l.log.Head()-l.pieceFrom > piece {
				l.cuts = append(l.cuts, at)
				l.pieceFrom = at
			}
			l.sinceNotify += int64(e.WireSize())
			if l.sinceNotify >= int64(l.cfg.ChunkSize) {
				l.sinceNotify = 0
				l.marks = append(l.marks, l.log.Head())
				if len(l.marks) >= l.notifyChunks() {
					l.notifyChunkReady(p)
				}
			}
			return at, nil
		}
		if err != fs.ErrLogFull {
			return 0, err
		}
		ev := l.spaceFreed
		l.notifyChunkReady(p)
		p.Wait(ev)
	}
}

// notifyChunkReady rings the doorbell: it tells the backend the log grew
// to the current head, carrying any accumulated intermediate chunk
// boundaries. A boundary equal to head is covered by head itself.
func (l *Client) notifyChunkReady(p *sim.Proc) {
	l.sinceNotify = 0
	head := l.log.Head()
	marks := l.marks
	if n := len(marks); n > 0 && marks[n-1] == head {
		marks = marks[:n-1]
	}
	l.backend.ChunkReady(p, head, marks)
	l.marks = l.marks[:0]
	l.cuts, l.pieceFrom = l.cuts[:0], head
}

// notifyChunks is the configured doorbell coalescing degree, at least 1.
func (l *Client) notifyChunks() int {
	if l.cfg.NotifyChunks > 1 {
		return l.cfg.NotifyChunks
	}
	return 1
}

// allocIno takes an inode number from the client's private range,
// recycling numbers released by earlier unlinks.
func (l *Client) allocIno() (fs.Ino, error) {
	if n := len(l.inoFree); n > 0 {
		ino := l.inoFree[n-1]
		l.inoFree = l.inoFree[:n-1]
		return ino, nil
	}
	if l.inoNext >= l.cfg.InoMax {
		return 0, fmt.Errorf("dfs: inode range exhausted")
	}
	ino := l.cfg.InoBase + fs.Ino(l.inoNext)
	l.inoNext++
	return ino, nil
}

// recycleIno returns an unlinked inode number to the free list.
func (l *Client) recycleIno(ino fs.Ino) {
	if ino >= l.cfg.InoBase && ino < l.cfg.InoBase+fs.Ino(l.cfg.InoMax) {
		l.inoFree = append(l.inoFree, ino)
	}
}

// resolve walks a path through the dirty overlay and the public area.
func (l *Client) resolve(p *sim.Proc, pth string) (fs.Ino, fs.FileType, error) {
	ctx := l.hostCtx(p)
	cur := fs.RootIno
	curType := fs.TypeDir
	for _, part := range cleanPath(pth) {
		if curType != fs.TypeDir {
			return 0, 0, fs.ErrNotDir
		}
		if m, ok := l.dirty.dirs[cur]; ok {
			if d, ok := m[part]; ok {
				if d.del {
					return 0, 0, fs.ErrNotExist
				}
				cur, curType = d.ino, d.typ
				continue
			}
		}
		ent, err := l.vol.DirLookup(&ctx, cur, part)
		if err != nil {
			return 0, 0, err
		}
		cur, curType = ent.Ino, ent.Type
	}
	if di, ok := l.dirty.inodes[cur]; ok && !di.exists {
		return 0, 0, fs.ErrNotExist
	}
	return cur, curType, nil
}

func cleanPath(p string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			part := p[start:i]
			start = i + 1
			if part == "" || part == "." {
				continue
			}
			out = append(out, part)
		}
	}
	return out
}

// splitDir returns the parent path and final element.
func splitDir(pth string) (string, string) {
	dir, name := path.Split(pth)
	if dir == "" {
		dir = "/"
	}
	return dir, name
}

// statIno merges dirty and published inode state.
func (l *Client) statIno(p *sim.Proc, ino fs.Ino) (typ fs.FileType, size uint64, err error) {
	di := l.dirty.inodes[ino]
	ctx := l.hostCtx(p)
	in, verr := l.vol.ReadInode(&ctx, ino)
	switch {
	case di != nil && !di.exists:
		return 0, 0, fs.ErrNoInode
	case di != nil && verr != nil:
		return di.typ, di.size, nil
	case di != nil:
		size = in.Size
		if di.hasSz && di.size > size {
			size = di.size
		}
		return in.Type, size, nil
	case verr != nil:
		return 0, 0, verr
	default:
		return in.Type, in.Size, nil
	}
}

func (l *Client) dirtyInode(ino fs.Ino) *dInode {
	di, ok := l.dirty.inodes[ino]
	if !ok {
		di = &dInode{exists: true}
		l.dirty.inodes[ino] = di
	}
	return di
}

func (l *Client) dirtyDir(dir fs.Ino) map[string]dirDelta {
	m, ok := l.dirty.dirs[dir]
	if !ok {
		m = make(map[string]dirDelta)
		l.dirty.dirs[dir] = m
	}
	return m
}
