// Package cluster implements the ZooKeeper-like cluster manager LineFS
// relies on for DFS membership, failure detection, epoch management and
// root lease arbitration (§3.4–3.6). The manager heartbeats every member
// once per second; DownAfter consecutive missed heartbeats mark the member
// down, bump the cluster epoch, expire its leases (via the listener) and
// notify the survivors. Recovery bumps the epoch again after a single
// responsive probe.
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

// Manager is the cluster coordinator.
type Manager struct {
	env      *sim.Env
	interval time.Duration

	// DownAfter is the failure-detection hysteresis: a live member is
	// declared down only after this many consecutive missed probes
	// (default 3). A single delayed probe — a GC pause, a saturated link —
	// then costs nothing, where the one-miss detector bumped the epoch,
	// expired leases, and reshaped every replication chain. Recovery is
	// immediate: one responsive probe brings a down member back.
	DownAfter int

	members []Member
	alive   map[string]bool
	missed  map[string]int
	epoch   uint64

	// rootLease maps a namespace root to the NICFS delegated to arbitrate
	// it (the paper's root-lease delegation).
	rootLease map[string]string

	// History records all membership events for inspection.
	History []Event

	proc *sim.Proc
}

// NewManager creates a manager with the given heartbeat interval (the
// paper's deployment uses one second).
func NewManager(env *sim.Env, interval time.Duration) *Manager {
	return &Manager{
		env:       env,
		interval:  interval,
		DownAfter: 3,
		alive:     make(map[string]bool),
		missed:    make(map[string]int),
		rootLease: make(map[string]string),
	}
}

// Epoch returns the current cluster epoch.
func (m *Manager) Epoch() uint64 { return m.epoch }

// Alive reports whether node is currently considered alive.
func (m *Manager) Alive(node string) bool { return m.alive[node] }

// AliveMembers returns the live members.
func (m *Manager) AliveMembers() []Member {
	var out []Member
	for _, mb := range m.members {
		if m.alive[mb.Name()] {
			out = append(out, mb)
		}
	}
	return out
}

// Join registers a member as alive.
func (m *Manager) Join(mb Member) {
	m.members = append(m.members, mb)
	m.alive[mb.Name()] = true
}

// DelegateRoot assigns lease arbitration for a namespace root to a node.
func (m *Manager) DelegateRoot(root, node string) { m.rootLease[root] = node }

// RootDelegate returns the arbitrating node for a namespace root.
func (m *Manager) RootDelegate(root string) (string, bool) {
	n, ok := m.rootLease[root]
	return n, ok
}

// Start launches the heartbeat process.
func (m *Manager) Start() {
	if m.proc != nil {
		return
	}
	m.proc = m.env.Go("cluster-manager", m.run)
}

// Stop terminates the heartbeat process.
func (m *Manager) Stop() {
	if m.proc != nil {
		m.proc.Kill()
		m.proc = nil
	}
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
				if m.missed[name] >= m.DownAfter {
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

	// Re-delegate root leases held by a failed node to a live member.
	if !up {
		for root, holder := range m.rootLease {
			if holder != name {
				continue
			}
			for _, cand := range m.members {
				if m.alive[cand.Name()] {
					m.rootLease[root] = cand.Name()
					break
				}
			}
		}
	}

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
