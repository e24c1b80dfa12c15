package rdma

import (
	"math/rand"
	"testing"
	"time"

	"linefs/internal/sim"
	"linefs/internal/stats"
)

// testLink builds a two-NIC fabric with a fault plane and a service queue
// on b, returning the environment, plane, counters, dial helper and queue.
func testLink(seed int64) (*sim.Env, *Fabric, *FaultPlane, *stats.Robustness, *sim.Queue[*Msg]) {
	e := sim.NewEnv(seed)
	f := NewFabric(e, time.Microsecond)
	a := f.NewNIC("a", 1e9)
	b := f.NewNIC("b", 1e9)
	_ = a
	rs := &stats.Robustness{}
	f.Robust = rs
	f.Faults = NewFaultPlane(e, rs)
	q := sim.NewQueue[*Msg](e, 0)
	b.Register("svc", q)
	return e, f, f.Faults, rs, q
}

// TestCallTimeoutLateRespondDiscarded commits the abandonment interleaving:
// the handler responds after the caller's deadline passed. The late reply
// must be discarded (never trigger into the caller that moved on) — even if
// the handler answers the same message twice.
func TestCallTimeoutLateRespondDiscarded(t *testing.T) {
	t.Parallel()
	e, f, _, rs, q := testLink(1)
	a, b := f.Lookup("a"), f.Lookup("b")
	e.Go("server", func(p *sim.Proc) {
		m, _ := q.Get(p)
		p.Sleep(50 * time.Millisecond) // well past the caller's deadline
		m.Respond(p, "late", 8)
		m.RespondErr(p, ErrUnreachable) // a buggy handler double-responding
	})
	clientDone := false
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		v, err, ok := c.CallTimeout(p, "x", nil, 8, 10*time.Millisecond, nil)
		if ok || v != nil || err != nil {
			t.Errorf("abandoned call returned (%v, %v, %v), want (nil, nil, false)", v, err, ok)
		}
		clientDone = true
	})
	e.Run()
	if !clientDone {
		t.Fatal("client never returned from the timed-out call")
	}
	if rs.RPCTimeouts != 1 {
		t.Errorf("RPCTimeouts = %d, want 1", rs.RPCTimeouts)
	}
	if rs.RepliesDiscarded != 2 {
		t.Errorf("RepliesDiscarded = %d, want 2 (both late responses)", rs.RepliesDiscarded)
	}
}

// TestFaultRuleDropThenDuplicate checks the two ends of the frame-fault
// mix: a drop=1 rule delivers nothing (while the sender still observes a
// successful post), and a dup=1 rule delivers the frame twice, the copy
// carrying no reply event.
func TestFaultRuleDropThenDuplicate(t *testing.T) {
	t.Parallel()
	e, f, fp, rs, q := testLink(2)
	a, b := f.Lookup("a"), f.Lookup("b")
	var got []*Msg
	e.Go("server", func(p *sim.Proc) {
		for {
			m, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, m)
		}
	})
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		fp.SetRule("a", "b", FaultRule{Drop: 1})
		if err := c.Send(p, "dropped", nil, 8); err != nil {
			t.Errorf("dropped send surfaced error %v; drops must be silent", err)
		}
		fp.SetRule("a", "b", FaultRule{Dup: 1})
		if err := c.Send(p, "duped", nil, 8); err != nil {
			t.Errorf("duplicated send: %v", err)
		}
		fp.ClearRule("a", "b")
		p.Sleep(time.Millisecond)
		q.Close()
	})
	e.Run()
	if rs.FramesDropped != 1 || rs.FramesDuplicated != 1 {
		t.Errorf("counters dropped=%d duplicated=%d, want 1 and 1", rs.FramesDropped, rs.FramesDuplicated)
	}
	if len(got) != 2 {
		t.Fatalf("handler received %d frames, want 2 (original + duplicate, drop eaten)", len(got))
	}
	for _, m := range got {
		if m.Op != "duped" {
			t.Errorf("handler saw op %q, want only the duplicated frame", m.Op)
		}
	}
}

// TestDelayedFrameOutlivesSenderCrash delays a frame, then kills its
// sender's whole process group while the frame is held back: the frame is
// already on the wire, so it still reaches the receiver.
func TestDelayedFrameOutlivesSenderCrash(t *testing.T) {
	t.Parallel()
	e, f, fp, rs, q := testLink(3)
	a, b := f.Lookup("a"), f.Lookup("b")
	var got *Msg
	var at sim.Time
	e.Go("server", func(p *sim.Proc) {
		got, _ = q.Get(p)
		at = p.Now()
	})
	sender := e.NewGroup()
	sent := false
	sender.Go("client", func(p *sim.Proc) {
		fp.SetRule("a", "b", FaultRule{Delay: 1, DelayMax: 10 * time.Millisecond})
		if err := Dial(a, b, "svc", false).Send(p, "late", nil, 8); err != nil {
			t.Errorf("delayed send: %v", err)
		}
		sent = true
		p.Sleep(time.Hour)
	})
	var crashedAt sim.Time
	e.Go("crash", func(p *sim.Proc) {
		for !sent {
			p.Sleep(time.Nanosecond)
		}
		crashedAt = p.Now()
		sender.Kill()
	})
	e.Run()
	if rs.FramesDelayed != 1 {
		t.Fatalf("FramesDelayed = %d, want 1", rs.FramesDelayed)
	}
	if got == nil || got.Op != "late" {
		t.Fatalf("receiver got %v, want the delayed frame after its sender's crash", got)
	}
	if at <= crashedAt {
		t.Errorf("frame arrived at %v, not after the crash at %v: it was never held back", at, crashedAt)
	}
}

// corruptible is a Corrupter payload for tests: the copy flips one byte.
type corruptible struct{ b []byte }

func (c *corruptible) CorruptCopy(rng *rand.Rand) any {
	bad := append([]byte(nil), c.b...)
	bad[rng.Intn(len(bad))] ^= 0xA5
	return &corruptible{b: bad}
}

// TestFaultCorruptionLandsOnCopy checks that in-flight corruption never
// mutates the sender-owned payload: the handler sees flipped bytes, the
// original buffer is untouched.
func TestFaultCorruptionLandsOnCopy(t *testing.T) {
	t.Parallel()
	e, f, fp, rs, q := testLink(3)
	a, b := f.Lookup("a"), f.Lookup("b")
	orig := []byte{1, 2, 3, 4}
	payload := &corruptible{b: append([]byte(nil), orig...)}
	var seen *corruptible
	e.Go("server", func(p *sim.Proc) {
		m, _ := q.Get(p)
		seen = m.Arg.(*corruptible)
	})
	e.Go("client", func(p *sim.Proc) {
		fp.SetRule("a", "b", FaultRule{Corrupt: 1})
		c := Dial(a, b, "svc", false)
		if err := c.Send(p, "x", payload, len(payload.b)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	e.Run()
	if rs.FramesCorrupted != 1 {
		t.Errorf("FramesCorrupted = %d, want 1", rs.FramesCorrupted)
	}
	if seen == nil {
		t.Fatal("handler received nothing")
	}
	if seen == payload {
		t.Fatal("corruption delivered the sender's own buffer")
	}
	diff := 0
	for i := range orig {
		if payload.b[i] != orig[i] {
			t.Fatalf("sender buffer mutated at byte %d", i)
		}
		if seen.b[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("delivered payload differs in %d bytes, want exactly 1 flipped", diff)
	}
}

// TestPartitionCutsBothPathsAndHeals checks that a partition eats frames in
// both directions, and that Heal restores delivery and counts once.
func TestPartitionCutsBothPathsAndHeals(t *testing.T) {
	t.Parallel()
	e, f, fp, rs, q := testLink(4)
	a, b := f.Lookup("a"), f.Lookup("b")
	var got []*Msg
	e.Go("server", func(p *sim.Proc) {
		for {
			m, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, m)
		}
	})
	e.Go("client", func(p *sim.Proc) {
		c := Dial(a, b, "svc", false)
		fp.Partition("a", "b")
		if !fp.Partitioned("b", "a") {
			t.Error("partition must be bidirectional")
		}
		if err := c.Send(p, "cut", nil, 8); err != nil {
			t.Errorf("partitioned send surfaced error %v; must be silent loss", err)
		}
		fp.Heal("a", "b")
		fp.Heal("a", "b") // second heal of a healthy link must not count
		if err := c.Send(p, "healed", nil, 8); err != nil {
			t.Errorf("post-heal send: %v", err)
		}
		p.Sleep(time.Millisecond)
		q.Close()
	})
	e.Run()
	if rs.PartitionsHealed != 1 {
		t.Errorf("PartitionsHealed = %d, want 1", rs.PartitionsHealed)
	}
	if len(got) != 1 || got[0].Op != "healed" {
		t.Fatalf("handler received %v, want only the post-heal frame", got)
	}
}

// TestIdlePlaneDrawsNoRandomness pins the digest-safety property: a fault
// plane whose rules cover other links consumes no RNG draws for unrelated
// traffic, so installing it cannot perturb a fault-free run.
func TestIdlePlaneDrawsNoRandomness(t *testing.T) {
	t.Parallel()
	const seed = 7
	run := func(plane bool) int64 {
		e := sim.NewEnv(seed)
		f := NewFabric(e, time.Microsecond)
		a := f.NewNIC("a", 1e9)
		b := f.NewNIC("b", 1e9)
		f.NewNIC("c", 1e9)
		if plane {
			f.Faults = NewFaultPlane(e, nil)
			// Rules and partitions on links this traffic never uses.
			f.Faults.SetRule("a", "c", FaultRule{Drop: 1, Dup: 1, Corrupt: 1})
			f.Faults.Partition("b", "c")
		}
		q := sim.NewQueue[*Msg](e, 0)
		b.Register("svc", q)
		e.Go("server", func(p *sim.Proc) {
			for {
				m, ok := q.Get(p)
				if !ok {
					return
				}
				if m.reply != nil {
					m.Respond(p, "ok", 8)
				}
			}
		})
		e.Go("client", func(p *sim.Proc) {
			conn := Dial(a, b, "svc", false)
			for i := 0; i < 4; i++ {
				conn.Send(p, "oneway", nil, 128)
				if _, err := conn.Call(p, "rpc", nil, 64); err != nil {
					t.Errorf("call: %v", err)
				}
			}
			q.Close()
		})
		e.Run()
		return e.Rand().Int63()
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("idle fault plane consumed RNG draws: next value %d vs %d", with, without)
	}
}
