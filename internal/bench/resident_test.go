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
// once published. Host memory behind the three devices must follow those
// bytes, not the device size. The count is per device and deterministic, so
// the gate holds beside parallel tests and is pinned exactly; a change to
// the on-PM format moves it and updates the two constants.
func TestClusterResidentBytes(t *testing.T) {
	t.Parallel()
	const (
		total        = 16 << 20
		wantFormat   = 12730368
		wantResident = 113627136
	)
	o := DefaultOptions()
	cl, err := newLineFS(o, o.layout(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	env := cl.Env
	defer env.Shutdown()
	resident := func() (n int64) {
		for _, m := range cl.Machines {
			n += m.PM.ResidentBytes()
		}
		return n
	}
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
	if distinct := int64(len(cl.Machines) * 2 * total); got-format > distinct*5/4 {
		t.Errorf("%d bytes resident beyond the format's %d for %d distinct bytes written: more than 1.25x", got-format, format, distinct)
	}
	if format != wantFormat || got != wantResident {
		t.Errorf("resident bytes: %d after format, %d after the workload; pinned %d and %d", format, got, wantFormat, wantResident)
	}
}

// TestChurnResidentBytes is the same gate under deletes: on the quick-scale
// cluster one client runs 2000 rounds of create, 16 KiB write, fsync and
// unlink, so every node publishes 31 MiB of file data and frees all of it.
// What stays live on each device is the used part of the client's log ring
// (primary) or its mirror (replicas); freed blocks must hand their pages
// back, so residency beyond the format stays within 1.25x of that. Pinned
// exactly per device.
func TestChurnResidentBytes(t *testing.T) {
	t.Parallel()
	const rounds = 2000
	want := [...]int64{29458432, 29458432, 29458432}
	o := DefaultOptions()
	l := o.layout(1)
	cl, err := newLineFS(o, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	env := cl.Env
	defer env.Shutdown()
	format := make([]int64, len(cl.Machines))
	for i, m := range cl.Machines {
		format[i] = m.PM.ResidentBytes()
	}
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
	for i, m := range cl.Machines {
		got := m.PM.ResidentBytes()
		if got-format[i] > logged*5/4 {
			t.Errorf("node %d: %d bytes resident beyond the format's %d for a %d-byte log and no live data: more than 1.25x",
				i, got-format[i], format[i], logged)
		}
		if got != want[i] {
			t.Errorf("node %d: %d bytes resident, pinned %d", i, got, want[i])
		}
	}
}
