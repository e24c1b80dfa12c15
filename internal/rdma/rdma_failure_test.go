package rdma

import (
	"testing"
	"time"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

// TestSendToUnregisteredAfterCrash models a service that disappears
// mid-connection (host crash): sends fail fast instead of blocking.
func TestSendToUnregisteredAfterCrash(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	f := NewFabric(e, time.Microsecond)
	a := f.NewNIC("a", 1e9)
	b := f.NewNIC("b", 1e9)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		if err := c.Send(p, "x", nil, 8); err != nil {
			t.Errorf("send before crash: %v", err)
		}
		b.Unregister("svc")
		q.Close()
		if err := c.Send(p, "x", nil, 8); err != ErrUnreachable {
			t.Errorf("send after crash: %v, want ErrUnreachable", err)
		}
		if _, err := c.Call(p, "x", nil, 8); err != ErrUnreachable {
			t.Errorf("call after crash: %v, want ErrUnreachable", err)
		}
	})
	e.Run()
}

// TestCallTimeoutWhenHandlerDies verifies CallTimeout returns when a
// handler is killed mid-request.
func TestCallTimeoutWhenHandlerDies(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	f := NewFabric(e, time.Microsecond)
	a := f.NewNIC("a", 1e9)
	b := f.NewNIC("b", 1e9)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	server := e.Go("server", func(p *sim.Proc) {
		m, _ := q.Get(p)
		p.Sleep(time.Hour) // never responds
		m.Respond(p, nil, 0)
	})
	done := false
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		_, _, replied := c.CallTimeout(p, "x", nil, 8, 10*time.Millisecond, nil, nil)
		if replied {
			t.Error("expected timeout")
		}
		done = true
	})
	e.Go("killer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		server.Kill()
	})
	e.RunUntil(time.Second)
	if !done {
		t.Fatal("client never returned")
	}
}

// TestLowLatPriorityBeatsBulkQueueing verifies the QP-class link priority:
// a small low-latency message is not serialized behind a bulk transfer
// backlog.
func TestLowLatPriorityBeatsBulkQueueing(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	f := NewFabric(e, 0)
	a := f.NewNIC("a", 1e9) // 1 GB/s: 4 MB takes 4 ms
	b := f.NewNIC("b", 1e9)
	pm := hw.NewPM(e, "pm", hw.PMConfig{Size: 32 << 20, Bandwidth: 1e12})
	b.RegisterRegion("r", &PMRegion{PM: pm, Base: 0, Len: 16 << 20})
	bulk := Dial(a, b, "", false)
	low := Dial(a, b, "", true)
	var lowDone sim.Time
	for i := 0; i < 4; i++ {
		e.Go("bulk", func(p *sim.Proc) {
			bulk.RDMAWrite(p, "r", 0, make([]byte, 4<<20))
		})
	}
	e.Go("low", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond) // bulk already queued
		low.RDMAWrite(p, "r", 1<<20, make([]byte, 256))
		lowDone = p.Now()
	})
	e.Run()
	// 16 MB of bulk at 1 GB/s = 16 ms; the prioritized small write must
	// finish far earlier (bounded by the in-flight segment).
	if lowDone > sim.Time(2*time.Millisecond) {
		t.Fatalf("low-latency write finished at %v; priority ineffective", lowDone)
	}
}
