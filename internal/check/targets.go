package check

import (
	"fmt"

	"linefs/internal/cluster"
	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/sim"
	"linefs/internal/systems"
)

// NewTarget builds a fresh cluster of one of the evaluated systems as a
// target.
//
// Sizes are deliberately small: the check cases are correctness tests that
// write at most ~16 MB, and every case builds (and tears down) a fresh
// three-machine cluster, so PM array size directly dominates suite runtime
// (page-fault and zeroing cost, not simulation work).
func NewTarget(seed int64, kind systems.Kind) (*Target, error) {
	l := cluster.DefaultLayout()
	l.Spec.PMSize = 256 << 20
	l.VolSize = 128 << 20
	l.LogSize = 24 << 20
	l.ChunkSize = 1 << 20
	l.MaxClients = 4
	l.InodesPerVol = 16384
	env := sim.NewEnv(seed)
	sys, err := systems.New(env, kind, l, nil)
	if err != nil {
		return nil, err
	}
	sys.Start()
	return &Target{
		Env:            env,
		Attach:         func(p *sim.Proc) (*dfs.Client, error) { return sys.Attach(p, 0) },
		CrashPrimaryPM: func() { sys.Machines[0].PM.Crash() },
		ReopenLog: func() (*fs.LogArea, *fs.Ctx, error) {
			ctx := fs.NoCostCtx(sys.Machines[0].PM)
			la, err := fs.OpenLogArea(ctx, sys.LogBase(0), l.LogSize)
			return la, ctx, err
		},
	}, nil
}

// RunCase executes one case against a fresh target built by mk. It returns
// nil on pass.
func RunCase(mk func() (*Target, error), c Case) error {
	tgt, err := mk()
	if err != nil {
		return err
	}
	defer tgt.Env.Shutdown()
	var caseErr error
	pr := tgt.Env.Go("check/"+c.Name, func(p *sim.Proc) {
		caseErr = c.Run(p, tgt)
	})
	// Run straight to the case's completion event (20 minutes virtual cap)
	// instead of stepping the clock in 50 ms polls.
	tgt.Env.Go("check/wait", func(p *sim.Proc) {
		p.WaitTimeout(pr.Done, 20*60*1000*1000*1000)
		tgt.Env.Stop()
	})
	tgt.Env.Run()
	if !pr.Done.Triggered() {
		return fmt.Errorf("case %s: did not complete in simulated time", c.Name)
	}
	return caseErr
}
