package systems

import (
	"testing"

	"linefs/internal/assise"
	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/sim"
)

// TestTable checks each row against what it is supposed to select: the
// spelling parses back to the kind, the name is the paper's, and New builds
// the daemon variant the name promises on the layout it was given.
func TestTable(t *testing.T) {
	l := cluster.DefaultLayout()
	l.Spec.PMSize, l.VolSize, l.LogSize, l.MaxClients = 16<<20, 8<<20, 2<<20, 2
	l.InodesPerVol = 2048
	want := []struct {
		name     string
		parallel bool        // LineFS kinds
		mode     assise.Mode // Assise kinds
	}{
		LineFS:            {name: "LineFS", parallel: true},
		LineFSNotParallel: {name: "LineFS-NotParallel"},
		Assise:            {name: "Assise", mode: assise.Pessimistic},
		AssiseBgRepl:      {name: "Assise-BgRepl", mode: assise.BgRepl},
		AssiseHyperloop:   {name: "Assise+Hyperloop", mode: assise.Hyperloop},
	}
	if len(All()) != len(want) {
		t.Fatalf("table has %d systems, want %d", len(All()), len(want))
	}
	for _, k := range All() {
		if got, err := Parse(k.Flag()); err != nil || got != k {
			t.Errorf("Parse(%q) = %v, %v; want %v", k.Flag(), got, err, k)
		}
		if k.String() != want[k].name {
			t.Errorf("kind %d prints %q, want %q", k, k.String(), want[k].name)
		}
		tuned := false
		sys, err := New(sim.NewEnv(1), k, l, func(c *core.Config) { tuned = true })
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		switch {
		case sys.Kind != k || sys.Testbed == nil || (sys.LineFS == nil) == (sys.Assise == nil):
			t.Errorf("%v: New returned kind %v, testbed %v, LineFS %v, Assise %v", k, sys.Kind, sys.Testbed, sys.LineFS, sys.Assise)
		case sys.LineFS != nil:
			if cfg := sys.LineFS.Cfg; cfg.Parallel != want[k].parallel || cfg.Layout != l || !tuned {
				t.Errorf("%v: Parallel=%v, layout kept=%v, lineFSOnly called=%v", k, cfg.Parallel, cfg.Layout == l, tuned)
			}
		default:
			if cfg := sys.Assise.Cfg; cfg.Mode != want[k].mode || cfg.Layout != l || tuned {
				t.Errorf("%v: Mode=%v, layout kept=%v, lineFSOnly called=%v", k, cfg.Mode, cfg.Layout == l, tuned)
			}
		}
		sys.Env.Shutdown()
	}
	if _, err := Parse("LineFS"); err == nil {
		t.Error("Parse accepted a paper name as a command-line spelling")
	}
	if got := Kind(len(want)).String(); got != "unknown" {
		t.Errorf("out-of-table kind prints %q", got)
	}
}
