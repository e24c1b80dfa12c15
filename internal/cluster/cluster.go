// Package cluster implements the ZooKeeper-like cluster manager LineFS
// relies on for DFS membership, failure detection and epoch management
// (§3.6). The manager heartbeats every member once per second; downAfter
// consecutive missed heartbeats mark the member down, bump the cluster
// epoch, expire its leases (via the listener) and notify the survivors.
// Recovery bumps the epoch again after a single responsive probe. Leases
// are not arbitrated here: each primary's NICFS grants those of its own
// clients (lease.Table).
//
// The package also holds what a deployment is before any DFS runs on it
// (testbed.go): the Layout both evaluated systems are configured by and the
// Testbed — machines, formatted volumes, this manager, client log slots —
// that core.Cluster and assise.Cluster embed under their daemons.
package cluster

import (
	"time"

	"linefs/internal/sim"
)

// Member is a managed NICFS instance.
type Member interface {
	// Name is the unique node name.
	Name() string
	// Probe is the heartbeat: it reports whether the member is responsive.
	// Called from the manager's process context.
	Probe(p *sim.Proc) bool
	// EpochChanged delivers the new cluster epoch for the member to
	// persist.
	EpochChanged(p *sim.Proc, epoch uint64)
	// PeerDown and PeerUp inform the member about membership transitions.
	PeerDown(p *sim.Proc, name string)
	PeerUp(p *sim.Proc, name string)
}

// EventType classifies manager events.
type EventType uint8

// Event types.
const (
	EventDown EventType = iota + 1
	EventUp
)

// Event records a membership transition.
type Event struct {
	Type  EventType
	Node  string
	Epoch uint64
	At    sim.Time
}

// downAfter is the failure-detection hysteresis: a live member is declared
// down only after this many consecutive missed probes. A single delayed
// probe — a GC pause, a saturated link — then costs nothing, where the
// one-miss detector bumped the epoch, expired leases, and reshaped every
// replication chain. Recovery is immediate: one responsive probe brings a
// down member back.
const downAfter = 3

// Manager is the cluster coordinator.
type Manager struct {
	env      *sim.Env
	interval time.Duration

	members []Member
	alive   map[string]bool
	missed  map[string]int
	epoch   uint64

	// History records all membership events for inspection.
	History []Event

	proc *sim.Proc
}

// NewManager creates a manager with the given heartbeat interval (the
// paper's deployment uses one second).
func NewManager(env *sim.Env, interval time.Duration) *Manager {
	return &Manager{
		env:      env,
		interval: interval,
		alive:    make(map[string]bool),
		missed:   make(map[string]int),
	}
}

// Epoch returns the current cluster epoch.
func (m *Manager) Epoch() uint64 { return m.epoch }

// Alive reports whether node is currently considered alive.
func (m *Manager) Alive(node string) bool { return m.alive[node] }

// Join registers a member as alive.
func (m *Manager) Join(mb Member) {
	m.members = append(m.members, mb)
	m.alive[mb.Name()] = true
}

// Start launches the heartbeat process.
func (m *Manager) Start() {
	if m.proc != nil {
		return
	}
	m.proc = m.env.Go("cluster-manager", m.run)
}

func (m *Manager) run(p *sim.Proc) {
	for {
		p.Sleep(m.interval)
		for _, mb := range m.members {
			responsive := mb.Probe(p)
			name := mb.Name()
			switch {
			case m.alive[name] && !responsive:
				m.missed[name]++
				if m.missed[name] >= downAfter {
					m.missed[name] = 0
					m.transition(p, mb, false)
				}
			case m.alive[name] && responsive:
				m.missed[name] = 0
			case !m.alive[name] && responsive:
				m.missed[name] = 0
				m.transition(p, mb, true)
			}
		}
	}
}

// transition marks a member up or down, bumps the epoch, and notifies the
// survivors (including the recovering node itself on the way up, so it can
// start recovery against the new epoch).
func (m *Manager) transition(p *sim.Proc, mb Member, up bool) {
	name := mb.Name()
	m.alive[name] = up
	m.epoch++
	typ := EventDown
	if up {
		typ = EventUp
	}
	m.History = append(m.History, Event{Type: typ, Node: name, Epoch: m.epoch, At: m.env.Now()})

	for _, peer := range m.members {
		if !m.alive[peer.Name()] && peer.Name() != name {
			continue
		}
		peer.EpochChanged(p, m.epoch)
		if peer.Name() == name {
			continue
		}
		if up {
			peer.PeerUp(p, name)
		} else {
			peer.PeerDown(p, name)
		}
	}
}
