// Package systems is the one table of the five systems the paper evaluates
// (§5.1) and the one way to deploy any of them: the two LineFS variants are
// core clusters, the three Assise variants assise clusters, all on the same
// testbed layout. Everything that runs "a system" — the public facade, the
// experiments, the correctness suite — goes through here and never asks
// which DFS it got.
package systems

import (
	"fmt"
	"strings"

	"linefs/internal/assise"
	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/sim"
)

// Kind names one of the evaluated systems.
type Kind int

// The systems under test, in the order the table lists them.
const (
	// LineFS is the full system: NICFS pipelines on the SmartNIC.
	LineFS Kind = iota
	// LineFSNotParallel disables pipeline parallelism (the ablation).
	LineFSNotParallel
	// Assise is the baseline in pessimistic mode.
	Assise
	// AssiseBgRepl adds background replication threads.
	AssiseBgRepl
	// AssiseHyperloop offloads replication to the RDMA NIC.
	AssiseHyperloop
)

// table holds, per Kind: the name as the paper prints it, the command-line
// spelling, and what selects the variant — LineFS's Parallel or the Assise
// mode (whose String is the paper's name for it).
var table = [...]struct {
	name, flag string
	lineFS     bool
	parallel   bool
	mode       assise.Mode
}{
	LineFS:            {name: "LineFS", flag: "linefs", lineFS: true, parallel: true},
	LineFSNotParallel: {name: "LineFS-NotParallel", flag: "linefs-np", lineFS: true},
	Assise:            {name: assise.Pessimistic.String(), flag: "assise", mode: assise.Pessimistic},
	AssiseBgRepl:      {name: assise.BgRepl.String(), flag: "assise-bg", mode: assise.BgRepl},
	AssiseHyperloop:   {name: assise.Hyperloop.String(), flag: "assise-hl", mode: assise.Hyperloop},
}

// All lists every system in table order.
func All() []Kind {
	out := make([]Kind, len(table))
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns the name the paper prints.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(table) {
		return "unknown"
	}
	return table[k].name
}

// Flag returns the command-line spelling.
func (k Kind) Flag() string { return table[k].flag }

// Flags lists the command-line spellings, for help text.
func Flags() string {
	var fl []string
	for _, row := range table {
		fl = append(fl, row.flag)
	}
	return strings.Join(fl, " | ")
}

// Parse resolves a command-line spelling.
func Parse(flag string) (Kind, error) {
	for k, row := range table {
		if row.flag == flag {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown system %q (want %s)", flag, Flags())
}

// System is one deployment of one Kind. The testbed is reachable whichever
// it is; exactly one of LineFS and Assise is set, for what only that daemon
// has (fault injection, stage timers, digestion counters).
type System struct {
	Kind Kind
	*cluster.Testbed
	LineFS *core.Cluster
	Assise *assise.Cluster
}

// New builds a system of the given kind on layout l. lineFSOnly, if not nil,
// adjusts the rest of a LineFS configuration (compression, publication
// method, ablation switches); it is not called for an Assise kind.
func New(env *sim.Env, kind Kind, l cluster.Layout, lineFSOnly func(*core.Config)) (*System, error) {
	row := table[kind]
	if !row.lineFS {
		cfg := assise.DefaultConfig()
		cfg.Layout, cfg.Mode = l, row.mode
		cl, err := assise.NewCluster(env, cfg)
		if err != nil {
			return nil, err
		}
		return &System{Kind: kind, Testbed: cl.Testbed, Assise: cl}, nil
	}
	cfg := core.DefaultConfig()
	cfg.Layout, cfg.Parallel = l, row.parallel
	if lineFSOnly != nil {
		lineFSOnly(&cfg)
	}
	cl, err := core.NewCluster(env, cfg)
	if err != nil {
		return nil, err
	}
	return &System{Kind: kind, Testbed: cl.Testbed, LineFS: cl}, nil
}

// Start launches the system's daemons.
func (s *System) Start() {
	if s.LineFS != nil {
		s.LineFS.Start()
		return
	}
	s.Assise.Start()
}

// Attach creates a client process handle on the given machine. It must be
// called from a simulation process.
func (s *System) Attach(p *sim.Proc, machine int) (*dfs.Client, error) {
	if s.LineFS != nil {
		a, err := s.LineFS.Attach(p, machine)
		if err != nil {
			return nil, err
		}
		return a.Client, nil
	}
	a, err := s.Assise.Attach(p, machine)
	if err != nil {
		return nil, err
	}
	return a.Client, nil
}
