package cluster

import (
	"testing"
	"time"

	"linefs/internal/sim"
)

type fakeMember struct {
	name   string
	up     bool
	epochs []uint64
	downs  []string
	ups    []string
}

func (f *fakeMember) Name() string                           { return f.name }
func (f *fakeMember) Probe(p *sim.Proc) bool                 { return f.up }
func (f *fakeMember) EpochChanged(p *sim.Proc, epoch uint64) { f.epochs = append(f.epochs, epoch) }
func (f *fakeMember) PeerDown(p *sim.Proc, name string)      { f.downs = append(f.downs, name) }
func (f *fakeMember) PeerUp(p *sim.Proc, name string)        { f.ups = append(f.ups, name) }

func TestFailureDetectionAndRecovery(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	m := NewManager(e, time.Second)
	a := &fakeMember{name: "a", up: true}
	b := &fakeMember{name: "b", up: true}
	m.Join(a)
	m.Join(b)
	m.Start()

	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(2500 * time.Millisecond)
		b.up = false
		p.Sleep(3 * time.Second)
		b.up = true
	})
	e.RunUntil(8 * time.Second)

	if m.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (one down + one up)", m.Epoch())
	}
	if len(a.downs) != 1 || a.downs[0] != "b" {
		t.Fatalf("a.downs = %v", a.downs)
	}
	if len(a.ups) != 1 || a.ups[0] != "b" {
		t.Fatalf("a.ups = %v", a.ups)
	}
	if !m.Alive("b") {
		t.Fatal("b should be alive again")
	}
	if len(m.History) != 2 {
		t.Fatalf("history = %v", m.History)
	}
	// The recovering node learns the new epoch itself.
	found := false
	for _, ep := range b.epochs {
		if ep == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered node never saw epoch 2")
	}
}

// TestRootLeaseFailover pins what a survivor learns when a member fails:
// the failed member is declared down at its third missed probe, the epoch
// moves to 1, and the survivor is told both — which is what lets its NICFS
// expire the failed node's leases and reshape its chains.
func TestRootLeaseFailover(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	m := NewManager(e, time.Second)
	a := &fakeMember{name: "a", up: true}
	b := &fakeMember{name: "b", up: true}
	m.Join(a)
	m.Join(b)
	m.Start()

	e.Go("fault", func(p *sim.Proc) {
		p.Sleep(1500 * time.Millisecond)
		a.up = false
	})
	e.RunUntil(6 * time.Second)

	want := Event{Type: EventDown, Node: "a", Epoch: 1, At: sim.Time(4 * time.Second)}
	if len(m.History) != 1 || m.History[0] != want {
		t.Fatalf("history = %v, want [%v]", m.History, want)
	}
	if len(b.downs) != 1 || b.downs[0] != "a" || len(b.epochs) != 1 || b.epochs[0] != 1 {
		t.Fatalf("survivor saw downs=%v epochs=%v, want [a] [1]", b.downs, b.epochs)
	}
}

func TestNoEventsWhenHealthy(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	m := NewManager(e, time.Second)
	a := &fakeMember{name: "a", up: true}
	m.Join(a)
	m.Start()
	e.RunUntil(10 * time.Second)
	if m.Epoch() != 0 || len(m.History) != 0 {
		t.Fatalf("epoch=%d history=%v", m.Epoch(), m.History)
	}
	if len(a.epochs) != 0 {
		t.Fatal("spurious epoch notifications")
	}
}

// TestAliveMembers pins that Alive follows a down/up transition: a member
// stays alive through its first two missed probes, is down from the third,
// and is alive again at its first responsive probe.
func TestAliveMembers(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	m := NewManager(e, time.Second)
	a := &fakeMember{name: "a", up: true}
	b := &fakeMember{name: "b", up: false}
	m.Join(a)
	m.Join(b)
	m.Start()
	e.RunUntil(2500 * time.Millisecond)
	if !m.Alive("b") {
		t.Fatal("b down after two missed probes, want alive (downAfter is 3)")
	}
	e.RunUntil(3500 * time.Millisecond)
	if !m.Alive("a") || m.Alive("b") {
		t.Fatalf("after three missed probes alive a=%v b=%v, want true false", m.Alive("a"), m.Alive("b"))
	}
	b.up = true
	e.RunUntil(4500 * time.Millisecond)
	if !m.Alive("b") {
		t.Fatal("b not alive after a responsive probe")
	}
}

// flakyMember misses a fixed window of probes, then recovers.
type flakyMember struct {
	fakeMember
	probes int
	missLo int // first probe index missed (1-based)
	missHi int // last probe index missed
}

func (f *flakyMember) Probe(p *sim.Proc) bool {
	f.probes++
	return f.probes < f.missLo || f.probes > f.missHi
}

// TestSingleMissedProbeNoTransition is the flapping regression: one delayed
// probe must not bump the epoch, expire leases, or reshape chains.
func TestSingleMissedProbeNoTransition(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	m := NewManager(e, time.Second)
	a := &fakeMember{name: "a", up: true}
	b := &flakyMember{fakeMember: fakeMember{name: "b"}, missLo: 3, missHi: 3}
	m.Join(a)
	m.Join(b)
	m.Start()
	e.RunUntil(10 * time.Second)

	if m.Epoch() != 0 || len(m.History) != 0 {
		t.Fatalf("single missed probe caused transitions: epoch=%d history=%v", m.Epoch(), m.History)
	}
	if len(a.downs) != 0 {
		t.Fatalf("peer notified of a flap: %v", a.downs)
	}
	if !m.Alive("b") {
		t.Fatal("b marked dead after one missed probe")
	}
}

// TestConsecutiveMissesTransition checks the miss counter resets on a
// responsive probe: two misses, one success, two misses again must not
// reach the threshold, but three in a row must.
func TestConsecutiveMissesTransition(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	m := NewManager(e, time.Second)
	// Misses probes 2..3 (two in a row), responsive at 4, misses 5..6.
	b := &flakyMember{fakeMember: fakeMember{name: "b"}, missLo: 2, missHi: 3}
	m.Join(b)
	m.Start()
	e.RunUntil(4 * time.Second)
	b.missLo, b.missHi = 5, 6
	e.RunUntil(7 * time.Second)
	if m.Epoch() != 0 {
		t.Fatalf("non-consecutive misses transitioned: history=%v", m.History)
	}

	// Now a real failure: three consecutive misses (and counting).
	b.missLo, b.missHi = 8, 100
	e.RunUntil(11 * time.Second)
	if m.Alive("b") || m.Epoch() != 1 {
		t.Fatalf("three consecutive misses did not transition: epoch=%d alive=%v", m.Epoch(), m.Alive("b"))
	}
}
