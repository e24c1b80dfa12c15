package bench

import (
	"testing"
	"time"

	"linefs/internal/sim"
	"linefs/internal/workload"
)

// TestClusterResidentBytes is the memory gate for the simulated PM: on the
// quick-scale LineFS cluster (3 x 1600 MiB of PM) one client writes and
// fsyncs 16 MiB, which every node holds twice — once in the client's log,
// once published. The three devices share one page store, so each
// replicated page is held in host memory once: beyond the format, the
// store must hold at most 1.25x the 32 MiB of distinct bytes. The count is
// the store's and deterministic, so the gate holds beside parallel tests and
// is pinned exactly; a change to the on-PM format or to what the devices
// share moves it and updates the two constants.
func TestClusterResidentBytes(t *testing.T) {
	t.Parallel()
	const (
		total        = 16 << 20
		wantFormat   = 81920
		wantResident = 33787904
	)
	o := DefaultOptions()
	cl, err := newLineFS(o, o.layout(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	env := cl.Env
	defer env.Shutdown()
	// Every machine reports the store they share.
	resident := func() int64 { return cl.Machines[0].PM.ResidentBytes() }
	format := resident()
	g := newGroup(env, 1)
	env.Go("bench", func(p *sim.Proc) {
		c, err := cl.Attach(p, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := workload.WriteBench(p, c, "/f", total, 16<<10, o.Seed); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Second) // publication drains
		g.done()
	})
	if !g.wait(600 * time.Second) {
		t.Fatal("run stalled")
	}
	got := resident()
	if distinct := int64(2 * total); got-format > distinct*5/4 {
		t.Errorf("%d bytes resident beyond the format's %d for %d distinct bytes written: more than 1.25x", got-format, format, distinct)
	}
	for _, m := range cl.Machines[1:] {
		if m.PM.ResidentBytes() != got {
			t.Errorf("%s reports %d resident bytes, %s %d: not one store", m.Name, m.PM.ResidentBytes(), cl.Machines[0].Name, got)
		}
	}
	if format != wantFormat || got != wantResident {
		t.Errorf("resident bytes: %d after format, %d after the workload; pinned %d and %d", format, got, wantFormat, wantResident)
	}
}

// TestChurnResidentBytes is the same gate under deletes: on the quick-scale
// cluster one client runs 2000 rounds of create, 16 KiB write, fsync and
// unlink, so every node publishes 31 MiB of file data and frees all of it.
// What stays live is the used part of the client's log ring on the primary
// and its mirror on each replica, which share their pages; freed blocks
// must hand their pages back, so the store's residency beyond the format
// stays within 2x the log. Pinned exactly.
func TestChurnResidentBytes(t *testing.T) {
	t.Parallel()
	const (
		rounds = 2000
		want   = 37765120
	)
	o := DefaultOptions()
	l := o.layout(1)
	cl, err := newLineFS(o, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := cl.Env
	defer env.Shutdown()
	format := cl.Machines[0].PM.ResidentBytes()
	var logged int64
	g := newGroup(env, 1)
	env.Go("bench", func(p *sim.Proc) {
		defer g.done()
		c, err := cl.Attach(p, 0)
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 16<<10)
		for i := 0; i < rounds; i++ {
			data[0] = byte(i)
			fd, err := c.Create(p, "/f")
			if err == nil {
				_, err = c.WriteAt(p, fd, 0, data)
			}
			if err == nil {
				err = c.Fsync(p, fd)
			}
			if err == nil {
				err = c.Close(p, fd)
			}
			if err == nil {
				err = c.Unlink(p, "/f")
			}
			if err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
		}
		p.Sleep(2 * time.Second) // publication drains
		logged = min(int64(c.Log().Head()), l.LogSize)
	})
	if !g.wait(600 * time.Second) {
		t.Fatal("run stalled")
	}
	got := cl.Machines[0].PM.ResidentBytes()
	if got-format > logged*2 {
		t.Errorf("%d bytes resident beyond the format's %d for a %d-byte log and no live data: more than 2x",
			got-format, format, logged)
	}
	if got != want {
		t.Errorf("%d bytes resident, pinned %d", got, want)
	}
}
