// Package lease implements the single-writer multiple-reader lease table
// LineFS uses to linearize shared-file access (§3.4). Lease arbitration is
// offloaded to NICFS; grants take effect immediately in SmartNIC memory
// while persistence and replication of the lease record happen
// asynchronously, tracked by the journal hook.
package lease

import (
	"sort"
	"time"

	"linefs/internal/fs"
	"linefs/internal/sim"
)

// Mode is the access class of a lease.
type Mode uint8

// Lease modes.
const (
	Read Mode = iota + 1
	Write
)

func (m Mode) String() string {
	if m == Write {
		return "write"
	}
	return "read"
}

// Record describes one granted lease, for persistence and replication.
type Record struct {
	Ino    fs.Ino
	Holder string
	Mode   Mode
	Expiry sim.Time
}

type state struct {
	writer    string
	writerExp sim.Time
	readers   map[string]sim.Time
}

// Table arbitrates leases on inodes. It is manipulated from simulation
// process context only.
type Table struct {
	env *sim.Env
	ttl time.Duration

	leases map[fs.Ino]*state

	// Journal, when set, is invoked for every grant and release so the
	// owner can persist and replicate lease state in the background.
	Journal func(rec Record, released bool)
}

// NewTable creates a lease table with the given lease lifetime.
func NewTable(env *sim.Env, ttl time.Duration) *Table {
	return &Table{env: env, ttl: ttl, leases: make(map[fs.Ino]*state)}
}

func (t *Table) get(ino fs.Ino) *state {
	s, ok := t.leases[ino]
	if !ok {
		s = &state{readers: make(map[string]sim.Time)}
		t.leases[ino] = s
	}
	return s
}

func (t *Table) expired(exp sim.Time) bool { return exp <= t.env.Now() }

// Acquire attempts to grant holder a lease on ino. On conflict it returns
// the holders blocking the grant (whose leases the manager may revoke).
// Re-acquiring refreshes the expiry; a holder's write lease satisfies a
// read request.
func (t *Table) Acquire(ino fs.Ino, holder string, mode Mode) (ok bool, conflicts []string) {
	s := t.get(ino)
	t.gc(s)
	exp := t.env.Now() + sim.Time(t.ttl)
	switch mode {
	case Read:
		if s.writer != "" && s.writer != holder {
			return false, []string{s.writer}
		}
		s.readers[holder] = exp
	case Write:
		if s.writer != "" && s.writer != holder {
			return false, []string{s.writer}
		}
		// Sorted so the conflict list (which drives revocation messages,
		// i.e. simulated events) is independent of map iteration order.
		for r := range s.readers {
			if r != holder {
				conflicts = append(conflicts, r)
			}
		}
		sort.Strings(conflicts)
		if len(conflicts) > 0 {
			return false, conflicts
		}
		s.writer, s.writerExp = holder, exp
	default:
		panic("lease: bad mode")
	}
	if t.Journal != nil {
		t.Journal(Record{Ino: ino, Holder: holder, Mode: mode, Expiry: exp}, false)
	}
	return true, nil
}

// gc drops expired grants.
func (t *Table) gc(s *state) {
	if s.writer != "" && t.expired(s.writerExp) {
		s.writer = ""
	}
	for r, exp := range s.readers {
		if t.expired(exp) {
			delete(s.readers, r)
		}
	}
}

// Holds reports whether holder currently holds at least the given mode on
// ino. A write lease implies read permission.
func (t *Table) Holds(ino fs.Ino, holder string, mode Mode) bool {
	s, ok := t.leases[ino]
	if !ok {
		return false
	}
	t.gc(s)
	if s.writer == holder {
		return true
	}
	if mode == Read {
		_, ok := s.readers[holder]
		return ok
	}
	return false
}

// Release drops holder's lease on ino.
func (t *Table) Release(ino fs.Ino, holder string) {
	s, ok := t.leases[ino]
	if !ok {
		return
	}
	if s.writer == holder {
		s.writer = ""
	}
	delete(s.readers, holder)
	if t.Journal != nil {
		t.Journal(Record{Ino: ino, Holder: holder}, true)
	}
}

// Revoke forcibly removes a specific holder's lease on ino (manager-driven
// revocation after notifying the holder).
func (t *Table) Revoke(ino fs.Ino, holder string) { t.Release(ino, holder) }

// sortedInos returns the table's inodes in increasing order, so bulk
// operations journal in a deterministic sequence.
func (t *Table) sortedInos() []fs.Ino {
	inos := make([]fs.Ino, 0, len(t.leases))
	for ino := range t.leases {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	return inos
}

// ExpireHolder drops every lease held by holder (client or node failure).
// Inodes are visited in sorted order: each release may journal a record,
// and the journal feeds persistence and replication — simulated events
// whose order must not depend on map iteration.
func (t *Table) ExpireHolder(holder string) int {
	n := 0
	for _, ino := range t.sortedInos() {
		s := t.leases[ino]
		if s.writer == holder {
			s.writer = ""
			n++
			if t.Journal != nil {
				t.Journal(Record{Ino: ino, Holder: holder}, true)
			}
		}
		if _, ok := s.readers[holder]; ok {
			delete(s.readers, holder)
			n++
		}
	}
	return n
}
