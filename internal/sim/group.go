package sim

import "slices"

// Group is a set of processes that fail together: a daemon and all it
// starts. A process started by a member joins the member's group.
type Group struct {
	env *Env
	// procs are the members in start order. Ended ones are dropped when the
	// slice is full, which then makes room for as many again as are left, so
	// short-lived helpers neither pile up nor make each start a scan.
	procs []*Proc
}

// NewGroup returns an empty group.
func (e *Env) NewGroup() *Group { return &Group{env: e} }

// Go starts a process in g, whoever calls it.
func (g *Group) Go(name string, fn func(p *Proc)) *Proc { return g.env.spawn(g, name, fn) }

func (g *Group) add(p *Proc) {
	if len(g.procs) == cap(g.procs) {
		g.procs = slices.DeleteFunc(g.procs, func(q *Proc) bool { return q.terminated })
		g.procs = slices.Grow(g.procs, len(g.procs))
	}
	g.procs = append(g.procs, p)
}

// Kill kills every live member in start order, so a crash unwinds the same
// way on every run. Processes started in g afterwards are its new members.
func (g *Group) Kill() {
	for _, p := range g.procs {
		p.Kill()
	}
}
