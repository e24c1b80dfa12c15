package hw_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"linefs/internal/core"
	"linefs/internal/sim"
)

// TestMemAccounting pins the bound that replaced the SmartNIC DRAM pool and
// its watermarks: what NICFS holds of a client's log is bytes the client has
// not reclaimed, so it never exceeds the log's used bytes, nor LogSize. Two
// clients each write three logs' worth without pause, so both logs fill and
// wait on reclaim; every 20 us of virtual time the bytes the primary's fetch
// engine has pulled, less what the clients have reclaimed since, are checked
// against the bytes their logs hold.
func TestMemAccounting(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	cfg.Spec.PMSize = 256 << 20
	cfg.VolSize = 128 << 20
	cfg.LogSize = 8 << 20
	cfg.ChunkSize = 1 << 20
	cfg.MaxClients = 4
	cfg.InodesPerVol = 8192
	env := sim.NewEnv(1)
	cl, err := core.NewCluster(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	defer env.Shutdown()

	var atts []*core.Attachment
	var tails []uint64
	done := 0
	for i := 0; i < 2; i++ {
		env.Go("writer", func(p *sim.Proc) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			atts, tails = append(atts, a), append(tails, a.Log().Tail())
			fd, err := a.Create(p, fmt.Sprintf("/f%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			buf := bytes.Repeat([]byte{byte(i)}, 16<<10)
			for off := 0; off < 3*int(cfg.LogSize); off += len(buf) {
				if _, err := a.WriteAt(p, fd, uint64(off), buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := a.Fsync(p, fd); err != nil {
				t.Error(err)
				return
			}
			done++
		})
	}
	fetch := cl.Machines[0].Fetch
	var peak int64
	env.Go("sampler", func(p *sim.Proc) {
		for done < 2 {
			p.Sleep(20 * time.Microsecond)
			held, used := fetch.Bytes.Total(), int64(0)
			for i, a := range atts {
				held -= int64(a.Log().Tail() - tails[i])
				used += a.Log().Used()
				if a.Log().Used() > cfg.LogSize {
					t.Errorf("at %v a log holds %d bytes, over LogSize %d", p.Now(), a.Log().Used(), cfg.LogSize)
				}
			}
			if held > used {
				t.Errorf("at %v NICFS holds %d fetched, unreclaimed bytes, over the %d its clients' logs hold", p.Now(), held, used)
				return
			}
			peak = max(peak, held)
		}
	})
	env.RunUntil(20 * time.Second)
	if done != 2 {
		t.Fatalf("%d of 2 writers finished", done)
	}
	t.Logf("peak held %d bytes against 2 logs of %d", peak, cfg.LogSize)
	if peak < int64(cfg.ChunkSize) {
		t.Errorf("peak held %d bytes, under one chunk: the check saw nothing in flight", peak)
	}
}
