package sim

import (
	"slices"
	"testing"
	"time"
)

// TestGroupMemberChildJoins starts a process from a member: it joins the
// member's group and dies with it, while a process the driver starts does
// not.
func TestGroupMemberChildJoins(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	g := e.NewGroup()
	var child *Proc
	g.Go("parent", func(p *Proc) {
		child = e.Go("child", func(cp *Proc) { cp.Sleep(time.Hour) })
		p.Sleep(time.Hour)
	})
	outsider := e.Go("outsider", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("crash", func(p *Proc) {
		p.Sleep(time.Millisecond)
		g.Kill()
	})
	e.RunUntil(time.Second)
	if !child.Done.Triggered() {
		t.Error("a member's child outlived the group's Kill")
	}
	if outsider.Done.Triggered() {
		t.Error("a process outside the group died with it")
	}
}

// TestGroupGoNamesTheGroup has a member of one group start a process in
// another: the process belongs to the group named, not to its starter's.
func TestGroupGoNamesTheGroup(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	a, b := e.NewGroup(), e.NewGroup()
	var lane *Proc
	starter := a.Go("starter", func(p *Proc) {
		lane = b.Go("lane", func(lp *Proc) { lp.Sleep(time.Hour) })
		p.Sleep(time.Hour)
	})
	e.Go("crash", func(p *Proc) {
		p.Sleep(time.Millisecond)
		a.Kill()
		p.Sleep(time.Millisecond)
		if lane.Done.Triggered() {
			t.Error("killing the starter's group killed a process started in another")
		}
		b.Kill()
	})
	e.RunUntil(time.Second)
	if !starter.Done.Triggered() || !lane.Done.Triggered() {
		t.Errorf("after both kills: starter ended %v, lane ended %v", starter.Done.Triggered(), lane.Done.Triggered())
	}
}

// TestGroupKillsInStartOrder kills members blocked on different things,
// one of them started by another member after the rest: they unwind in the
// order they started, whatever they wait on.
func TestGroupKillsInStartOrder(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	g := e.NewGroup()
	var died []string
	q := NewQueue[int](e, 0)
	r := NewResource(e, 1)
	member := func(name string, block func(p *Proc)) func(p *Proc) {
		return func(p *Proc) {
			defer func() { died = append(died, name) }()
			block(p)
		}
	}
	g.Go("a", member("a", func(p *Proc) {
		p.Sleep(time.Microsecond)
		e.Go("e", member("e", func(p *Proc) { p.Sleep(time.Hour) }))
		p.Sleep(time.Hour)
	}))
	g.Go("b", member("b", func(p *Proc) { q.Get(p) }))
	g.Go("c", member("c", func(p *Proc) { r.Acquire(p, 0); p.Sleep(time.Hour) }))
	g.Go("d", member("d", func(p *Proc) { r.Acquire(p, 0) }))
	e.Go("crash", func(p *Proc) {
		p.Sleep(time.Millisecond)
		g.Kill()
	})
	e.RunUntil(time.Second)
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(died, want) {
		t.Fatalf("members died in order %v, want %v", died, want)
	}
}

// TestGroupPrunesEndedMembers has a member start thousands of short-lived
// helpers one after another: the group keeps only a handful of entries.
func TestGroupPrunesEndedMembers(t *testing.T) {
	t.Parallel()
	e := NewEnv(1)
	g := e.NewGroup()
	peak := 0
	g.Go("daemon", func(p *Proc) {
		for range 5000 {
			h := e.Go("helper", func(hp *Proc) { hp.Sleep(time.Microsecond) })
			p.Wait(h.Done)
			peak = max(peak, len(g.procs))
		}
	})
	e.Run()
	if peak > 8 {
		t.Fatalf("group held %d entries for 2 live processes", peak)
	}
}
