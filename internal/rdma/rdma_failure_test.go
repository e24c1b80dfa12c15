package rdma

import (
	"testing"
	"time"

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
		_, _, replied := c.CallTimeout(p, "x", nil, 8, 10*time.Millisecond, nil)
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
// a small low-latency message is neither serialized behind a bulk transfer
// backlog nor behind the bulk segment in service. It finishes at its arrival
// plus its own serialization, exactly.
func TestLowLatPriorityBeatsBulkQueueing(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	f := NewFabric(e, 0)
	a := f.NewNIC("a", 1e9) // 1 GB/s: 4 MB takes 4 ms
	b := f.NewNIC("b", 1e9)
	sink(e, b)
	bulk := Dial(a, b, "sink", false)
	low := Dial(a, b, "sink", true)
	var lowDone sim.Time
	for i := 0; i < 4; i++ {
		e.Go("bulk", func(p *sim.Proc) {
			bulk.Send(p, "bulk", nil, 4<<20)
		})
	}
	const arrive = 100 * time.Microsecond // bulk queued, a 256 KiB segment in service
	e.Go("low", func(p *sim.Proc) {
		p.Sleep(arrive)
		low.Send(p, "low", nil, 256)
		lowDone = p.Now()
	})
	e.Run()
	if want := sim.Time(arrive + a.TX.SerializeTime(256+msgOverhead)); lowDone != want {
		t.Fatalf("low-latency send finished at %v, want %v: its arrival plus its own serialization", lowDone, want)
	}
}
