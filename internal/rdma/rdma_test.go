package rdma

import (
	"testing"
	"time"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

func testFabric(e *sim.Env) (*Fabric, *NIC, *NIC) {
	f := NewFabric(e, time.Microsecond)
	a := f.NewNIC("a", 1e9)
	b := f.NewNIC("b", 1e9)
	return f, a, b
}

func TestCallRoundTrip(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	e.Go("server", func(p *sim.Proc) {
		m, _ := q.Get(p)
		if m.Op != "ping" || m.Arg.(string) != "hello" {
			t.Errorf("got op=%q arg=%v", m.Op, m.Arg)
		}
		m.Respond(p, "world", 8)
	})
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		v, err := c.Call(p, "ping", "hello", 8)
		if err != nil || v.(string) != "world" {
			t.Errorf("call = %v, %v", v, err)
		}
	})
	e.Run()
}

// TestDeadlineLessCallTrace pins the event sequence of a Call with no
// deadline: Call shares its body with CallTimeout, and must not start
// scheduling a timer (or any other event) on the way. The constants are the
// event count and digest the three-body rdma.Conn produced for this exact
// exchange.
func TestDeadlineLessCallTrace(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	e.EnableTrace()
	_, a, b := testFabric(e)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	const calls = 32
	e.Go("server", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			m, _ := q.Get(p)
			m.Respond(p, i, 8)
		}
	})
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		for i := 0; i < calls; i++ {
			if v, err := c.Call(p, "ping", nil, 64); err != nil || v.(int) != i {
				t.Errorf("call %d = %v, %v", i, v, err)
			}
		}
	})
	e.Run()
	const wantEvents, wantDigest = 194, sim.Digest(0xd709bb2c6a1d070a)
	if got := e.TracedEvents(); got != wantEvents {
		t.Errorf("%d deadline-less calls folded %d events, want %d", calls, got, wantEvents)
	}
	if got := e.TraceDigest(); got != wantDigest {
		t.Errorf("digest = %#x, want %#x", uint64(got), uint64(wantDigest))
	}
}

func TestCallUnreachableService(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e)
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "nosuch", false)
		if _, err := c.Call(p, "x", nil, 4); err != ErrUnreachable {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
	})
	e.Run()
}

func TestCallTimeoutOnDeadServer(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	// No server process ever drains the queue? Put succeeds (unbounded) but
	// nothing responds.
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		_, _, ok := c.CallTimeout(p, "x", nil, 4, 5*time.Millisecond, nil, nil)
		if ok {
			t.Error("expected timeout")
		}
	})
	e.Run()
}

func TestSendDeliversWithoutReply(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	var got string
	e.Go("server", func(p *sim.Proc) {
		m, _ := q.Get(p)
		got = m.Op
		if m.NeedsReply() {
			t.Error("one-way send should not need a reply")
		}
	})
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		if err := c.Send(p, "notify", nil, 16); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if got != "notify" {
		t.Fatalf("got %q", got)
	}
}

func TestRDMAWriteReadPMRegion(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(1<<20))
	b.RegisterRegion("log", &PMRegion{PM: pm, Base: 4096, Len: 1 << 16, Persist: true})
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "", false)
		if err := c.RDMAWrite(p, "log", 100, []byte("chunkdata")); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 9)
		if err := c.RDMARead(p, "log", 100, dst); err != nil {
			t.Fatal(err)
		}
		if string(dst) != "chunkdata" {
			t.Errorf("read back %q", dst)
		}
	})
	e.Run()
	// Persist=true: data survives a crash.
	pm.Crash()
	buf := make([]byte, 9)
	pm.ReadNoCost(4096+100, buf)
	if string(buf) != "chunkdata" {
		t.Fatalf("after crash: %q", buf)
	}
}

func TestRDMAWriteChargesWireTime(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e) // 1 GB/s
	pm := hw.NewPM(e, "pm", hw.PMConfig{Size: 1 << 20, Bandwidth: 100e9})
	b.RegisterRegion("r", &PMRegion{PM: pm, Base: 0, Len: 1 << 20})
	var took sim.Time
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "", false)
		c.RDMAWrite(p, "r", 0, make([]byte, 1_000_000))
		took = p.Now()
	})
	e.Run()
	// ~1 MB at 1 GB/s ≈ 1 ms; allow for header overhead and switch latency.
	if took < sim.Time(time.Millisecond) || took > sim.Time(1100*time.Microsecond) {
		t.Fatalf("1MB write took %v, want ≈1ms", took)
	}
}

func TestSharedEgressSaturation(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e) // 1 GB/s egress on a
	pm := hw.NewPM(e, "pm", hw.PMConfig{Size: 8 << 20, Bandwidth: 100e9})
	b.RegisterRegion("r", &PMRegion{PM: pm, Base: 0, Len: 8 << 20})
	var last sim.Time
	for i := 0; i < 4; i++ {
		e.Go("tx", func(p *sim.Proc) {
			c := Dial(a, b, "", false)
			c.RDMAWrite(p, "r", 0, make([]byte, 1_000_000))
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// 4 MB through a shared 1 GB/s egress ≈ 4 ms.
	if last < sim.Time(4*time.Millisecond) || last > sim.Time(4400*time.Microsecond) {
		t.Fatalf("4 concurrent 1MB writes done at %v, want ≈4ms", last)
	}
}

func TestQPCachePenalty(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	f := NewFabric(e, 0)
	a := f.NewNIC("a", 1e12)
	b := f.NewNIC("b", 1e12)
	a.QPCacheSize, b.QPCacheSize = 1, 1
	a.QPPenalty, b.QPPenalty = time.Microsecond, time.Microsecond
	conns := make([]*Conn, 5)
	for i := range conns {
		conns[i] = Dial(a, b, "", false)
	}
	pm := hw.NewPM(e, "pm", hw.PMConfig{Size: 1 << 12, Bandwidth: 1e12})
	b.RegisterRegion("r", &PMRegion{PM: pm, Base: 0, Len: 1 << 12})
	var took sim.Time
	e.Go("c", func(p *sim.Proc) {
		conns[0].RDMAWrite(p, "r", 0, make([]byte, 8))
		took = p.Now()
	})
	e.Run()
	// 4 QPs over cache size on each side → ≥8us extra latency.
	if took < sim.Time(8*time.Microsecond) {
		t.Fatalf("with thrashed QP cache write took %v, want ≥8us", took)
	}
	for _, c := range conns {
		c.Close()
	}
	if a.QPs != 0 || b.QPs != 0 {
		t.Fatalf("QP leak: a=%d b=%d", a.QPs, b.QPs)
	}
}

func TestFabricByteAccounting(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	f, a, b := testFabric(e)
	pm := hw.NewPM(e, "pm", hw.PMConfig{Size: 1 << 16, Bandwidth: 1e12})
	b.RegisterRegion("r", &PMRegion{PM: pm, Base: 0, Len: 1 << 16})
	e.Go("c", func(p *sim.Proc) {
		c := Dial(a, b, "", false)
		c.RDMAWrite(p, "r", 0, make([]byte, 1000))
	})
	e.Run()
	if f.Total.Total() < 1000 {
		t.Fatalf("fabric bytes = %d, want >= 1000", f.Total.Total())
	}
}

// TestRegisterPerConnDelivers: a per-connection service is asked for the
// queue at every post, with the connection the message travels on, so each
// queue pair's messages land on its own queue in the order sent — and a
// service that is gone is unreachable whatever queues it once named.
func TestRegisterPerConnDelivers(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	_, a, b := testFabric(e)
	queues := map[*Conn]*sim.Queue[*Msg]{}
	b.RegisterPerConn("svc", func(c *Conn) *sim.Queue[*Msg] {
		if queues[c] == nil {
			queues[c] = sim.NewQueue[*Msg](e, 0)
		}
		return queues[c]
	})
	c1, c2 := Dial(a, b, "svc", true), Dial(a, b, "svc", true)
	e.Go("client", func(p *sim.Proc) {
		for i, c := range []*Conn{c1, c2, c1, c1, c2} {
			if err := c.Send(p, "n", i, 8); err != nil {
				t.Error(err)
			}
		}
		b.Unregister("svc")
		if err := c1.Send(p, "n", 5, 8); err != ErrUnreachable {
			t.Errorf("send to an unregistered per-connection service: %v", err)
		}
	})
	e.Run()
	for c, want := range map[*Conn][]int{c1: {0, 2, 3}, c2: {1, 4}} {
		q := queues[c]
		if q == nil || q.Len() != len(want) {
			t.Fatalf("a connection's queue holds %v, want %d messages", q, len(want))
		}
		for _, w := range want {
			if m, _ := q.TryGet(); m.Arg.(int) != w {
				t.Errorf("got message %v, want %d: one queue pair's order was not kept", m.Arg, w)
			}
		}
	}
}
