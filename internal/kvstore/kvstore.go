// Package kvstore implements a LevelDB-like log-structured merge-tree key
// value store on top of the DFS client API: a write-ahead log, an in-memory
// memtable, sorted string tables flushed through the file system, and
// merging compaction. The paper's Figure 8a runs LevelDB's db_bench over
// LineFS and Assise; this package provides the store and an equivalent
// benchmark driver without importing third-party code.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"linefs/internal/dfs"
	"linefs/internal/sim"
)

// Options tune the store.
type Options struct {
	// MemtableBytes triggers a flush to a new SSTable (LevelDB default
	// write_buffer_size = 4 MB).
	MemtableBytes int
	// L0Compact triggers merging compaction when this many L0 tables
	// accumulate.
	L0Compact int
	// SyncWAL fsyncs the write-ahead log on every Put.
	SyncWAL bool
}

// DefaultOptions mirror LevelDB's defaults.
func DefaultOptions() Options {
	return Options{MemtableBytes: 4 << 20, L0Compact: 8}
}

// DB is an open store.
type DB struct {
	fsc *dfs.Client
	dir string
	opt Options

	mem     map[string][]byte
	memSize int

	walFD   int
	walPath string
	walOff  uint64

	tables  []*table // newest last
	nextTab int
}

// table is one SSTable with its index resident in memory and its file
// handle kept open (the table cache).
type table struct {
	path  string
	fd    int
	index []indexEnt // sorted by key
}

type indexEnt struct {
	key  string
	off  uint64
	vlen uint32
	klen uint32
}

// Open creates or opens a store rooted at dir.
func Open(p *sim.Proc, fsc *dfs.Client, dir string, opt Options) (*DB, error) {
	if opt.MemtableBytes == 0 {
		opt.MemtableBytes = 4 << 20
	}
	if opt.L0Compact == 0 {
		opt.L0Compact = 8
	}
	db := &DB{fsc: fsc, dir: dir, opt: opt, mem: make(map[string][]byte)}
	if _, _, err := fsc.Stat(p, dir); err != nil {
		if err := fsc.Mkdir(p, dir); err != nil {
			return nil, err
		}
	}
	if err := db.newWAL(p); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) newWAL(p *sim.Proc) error {
	db.walPath = fmt.Sprintf("%s/wal%06d.log", db.dir, db.nextTab)
	fd, err := db.fsc.Create(p, db.walPath)
	if err != nil {
		return err
	}
	db.walFD = fd
	db.walOff = 0
	return nil
}

// walRecord encodes one Put for the WAL.
func walRecord(key, value []byte) []byte {
	buf := make([]byte, 8+len(key)+len(value))
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(value)))
	copy(buf[8:], key)
	copy(buf[8+len(key):], value)
	return buf
}

// Put inserts a key/value pair: WAL append, memtable insert, flush and
// compaction as thresholds trip.
func (db *DB) Put(p *sim.Proc, key, value []byte) error {
	rec := walRecord(key, value)
	if _, err := db.fsc.WriteAt(p, db.walFD, db.walOff, rec); err != nil {
		return err
	}
	db.walOff += uint64(len(rec))
	if db.opt.SyncWAL {
		if err := db.fsc.Fsync(p, db.walFD); err != nil {
			return err
		}
	}
	old, had := db.mem[string(key)]
	db.mem[string(key)] = append([]byte(nil), value...)
	if had {
		db.memSize -= len(old)
	} else {
		db.memSize += len(key)
	}
	db.memSize += len(value)
	if db.memSize >= db.opt.MemtableBytes {
		if err := db.flush(p); err != nil {
			return err
		}
	}
	return nil
}

// Get looks a key up in the memtable, then tables newest-first.
func (db *DB) Get(p *sim.Proc, key []byte) ([]byte, bool, error) {
	if v, ok := db.mem[string(key)]; ok {
		return append([]byte(nil), v...), true, nil
	}
	for i := len(db.tables) - 1; i >= 0; i-- {
		v, ok, err := db.tableGet(p, db.tables[i], string(key))
		if err != nil {
			return nil, false, err
		}
		if ok {
			return v, true, nil
		}
	}
	return nil, false, nil
}

func (db *DB) tableGet(p *sim.Proc, t *table, key string) ([]byte, bool, error) {
	i := sort.Search(len(t.index), func(i int) bool { return t.index[i].key >= key })
	if i >= len(t.index) || t.index[i].key != key {
		return nil, false, nil
	}
	ent := t.index[i]
	buf := make([]byte, ent.vlen)
	n, err := db.fsc.ReadAt(p, t.fd, ent.off+8+uint64(ent.klen), buf)
	if err != nil || n != len(buf) {
		return nil, false, fmt.Errorf("kvstore: short table read (%d/%d): %v", n, len(buf), err)
	}
	return buf, true, nil
}

// flush writes the memtable as a new SSTable and starts a fresh WAL.
func (db *DB) flush(p *sim.Proc) error {
	if len(db.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(db.mem))
	for k := range db.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	path := fmt.Sprintf("%s/tab%06d.sst", db.dir, db.nextTab)
	db.nextTab++
	fd, err := db.fsc.Create(p, path)
	if err != nil {
		return err
	}
	t := &table{path: path}
	var off uint64
	// Write in batches to keep syscall counts realistic (64 KB blocks).
	var pending []byte
	pendingStart := uint64(0)
	flushPending := func() error {
		if len(pending) == 0 {
			return nil
		}
		if _, err := db.fsc.WriteAt(p, fd, pendingStart, pending); err != nil {
			return err
		}
		pending = nil
		return nil
	}
	for _, k := range keys {
		v := db.mem[k]
		rec := walRecord([]byte(k), v)
		if len(pending) == 0 {
			pendingStart = off
		}
		t.index = append(t.index, indexEnt{key: k, off: off, klen: uint32(len(k)), vlen: uint32(len(v))})
		pending = append(pending, rec...)
		off += uint64(len(rec))
		if len(pending) >= 64<<10 {
			if err := flushPending(); err != nil {
				return err
			}
		}
	}
	if err := flushPending(); err != nil {
		return err
	}
	if err := db.fsc.Fsync(p, fd); err != nil {
		return err
	}
	t.fd = fd // stays open in the table cache
	db.tables = append(db.tables, t)

	// Retire the WAL (its contents are now durable in the table).
	db.fsc.Close(p, db.walFD)
	if err := db.fsc.Unlink(p, db.walPath); err != nil {
		return err
	}
	db.mem = make(map[string][]byte)
	db.memSize = 0
	if err := db.newWAL(p); err != nil {
		return err
	}
	if len(db.tables) >= db.opt.L0Compact {
		return db.compact(p)
	}
	return nil
}

// compact merges all tables into one (a single-level approximation of
// LevelDB's leveled compaction: full read, merge, rewrite).
func (db *DB) compact(p *sim.Proc) error {
	merged := make(map[string]indexLoc)
	for ti, t := range db.tables {
		for _, e := range t.index {
			merged[e.key] = indexLoc{table: ti, ent: e}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	path := fmt.Sprintf("%s/tab%06d.sst", db.dir, db.nextTab)
	db.nextTab++
	fd, err := db.fsc.Create(p, path)
	if err != nil {
		return err
	}
	out := &table{path: path}
	var off uint64
	var pending []byte
	pendingStart := uint64(0)
	for _, k := range keys {
		loc := merged[k]
		val := make([]byte, loc.ent.vlen)
		if _, err := db.fsc.ReadAt(p, db.tables[loc.table].fd, loc.ent.off+8+uint64(loc.ent.klen), val); err != nil {
			return err
		}
		rec := walRecord([]byte(k), val)
		if len(pending) == 0 {
			pendingStart = off
		}
		out.index = append(out.index, indexEnt{key: k, off: off, klen: uint32(len(k)), vlen: uint32(len(val))})
		pending = append(pending, rec...)
		off += uint64(len(rec))
		if len(pending) >= 256<<10 {
			if _, err := db.fsc.WriteAt(p, fd, pendingStart, pending); err != nil {
				return err
			}
			pending = nil
		}
	}
	if len(pending) > 0 {
		if _, err := db.fsc.WriteAt(p, fd, pendingStart, pending); err != nil {
			return err
		}
	}
	if err := db.fsc.Fsync(p, fd); err != nil {
		return err
	}
	out.fd = fd
	for _, t := range db.tables {
		db.fsc.Close(p, t.fd)
		if err := db.fsc.Unlink(p, t.path); err != nil {
			return err
		}
	}
	db.tables = []*table{out}
	return nil
}

type indexLoc struct {
	table int
	ent   indexEnt
}

// Flush forces the memtable out (test/benchmark epilogue).
func (db *DB) Flush(p *sim.Proc) error { return db.flush(p) }

// Tables returns the current SSTable count (diagnostics).
func (db *DB) Tables() int { return len(db.tables) }

// Close flushes and releases the WAL.
func (db *DB) Close(p *sim.Proc) error {
	if err := db.flush(p); err != nil {
		return err
	}
	return db.fsc.Close(p, db.walFD)
}
