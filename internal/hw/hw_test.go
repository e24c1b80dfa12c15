package hw

import (
	"bytes"
	"testing"
	"time"

	"linefs/internal/sim"
)

func TestCPUComputeTime(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	c := NewCPU(e, "host", 4, 1.0)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		c.Compute(p, time.Millisecond, 0, "job")
		done = p.Now()
	})
	e.Run()
	if done != sim.Time(time.Millisecond) {
		t.Fatalf("1ms of work took %v", done)
	}
	if c.Util.Busy("job") != time.Millisecond {
		t.Fatalf("util = %v", c.Util.Busy("job"))
	}
}

func TestCPUWimpyScaling(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	nic := NewCPU(e, "nic", 16, 0.5)
	var done sim.Time
	e.Go("w", func(p *sim.Proc) {
		nic.Compute(p, time.Millisecond, 0, "job")
		done = p.Now()
	})
	e.Run()
	if done != sim.Time(2*time.Millisecond) {
		t.Fatalf("half-speed core: 1ms work took %v, want 2ms", done)
	}
}

func TestCPUContentionTimeSlicing(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	c := NewCPU(e, "host", 1, 1.0)
	var aDone, bDone sim.Time
	e.Go("a", func(p *sim.Proc) {
		c.Compute(p, time.Millisecond, 0, "a")
		aDone = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		c.Compute(p, time.Millisecond, 0, "b")
		bDone = p.Now()
	})
	e.Run()
	// With round-robin sharing both finish near 2ms, not one at 1ms and
	// one at 2ms.
	if aDone < sim.Time(1900*time.Microsecond) || bDone < sim.Time(1900*time.Microsecond) {
		t.Fatalf("a=%v b=%v; want both ~2ms (fair sharing)", aDone, bDone)
	}
}

func TestCPUPriorityStarvesLow(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	c := NewCPU(e, "host", 1, 1.0)
	var hiDone, loDone sim.Time
	e.Go("lo", func(p *sim.Proc) {
		c.Compute(p, time.Millisecond, 0, "lo")
		loDone = p.Now()
	})
	e.Go("hi", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond) // arrive after lo started
		c.Compute(p, time.Millisecond, 10, "hi")
		hiDone = p.Now()
	})
	e.Run()
	if hiDone >= loDone {
		t.Fatalf("hi=%v lo=%v; high priority should finish first", hiDone, loDone)
	}
}

func TestPinnedCore(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	c := NewCPU(e, "nic", 2, 1.0)
	e.Go("poller", func(p *sim.Proc) {
		pc := c.Pin(p, 5)
		pc.Run(p, time.Millisecond, "poll")
		pc.Unpin()
	})
	e.Run()
	if c.Util.Busy("poll") != time.Millisecond {
		t.Fatalf("pinned busy = %v", c.Util.Busy("poll"))
	}
	if c.Cores.InUse() != 0 {
		t.Fatal("core leaked after unpin")
	}
}

func TestLinkBandwidthAndLatency(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	l := NewLink(e, "net", time.Microsecond, 1e9) // 1 GB/s, 1us latency
	var done sim.Time
	e.Go("tx", func(p *sim.Proc) {
		l.Transfer(p, 1000, 0) // 1000 B at 1 GB/s = 1us + 1us latency
		done = p.Now()
	})
	e.Run()
	if done != sim.Time(2*time.Microsecond) {
		t.Fatalf("transfer took %v, want 2us", done)
	}
	if l.Bytes.Total() != 1000 {
		t.Fatalf("bytes = %d", l.Bytes.Total())
	}
}

func TestLinkSharedBandwidth(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	l := NewLink(e, "net", 0, 1e9)
	var last sim.Time
	for i := 0; i < 2; i++ {
		e.Go("tx", func(p *sim.Proc) {
			l.Transfer(p, 1_000_000, 0)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	e.Run()
	// 2 MB through 1 GB/s = 2 ms total regardless of interleaving.
	if last != sim.Time(2*time.Millisecond) {
		t.Fatalf("shared transfers done at %v, want 2ms", last)
	}
}

func TestPMWritePersistRead(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := NewPM(e, "pm", DefaultPMConfig(1<<20))
	e.Go("io", func(p *sim.Proc) {
		pm.WritePersist(p, 100, []byte("hello"))
		buf := make([]byte, 5)
		pm.Read(p, 100, buf)
		if string(buf) != "hello" {
			t.Errorf("read %q", buf)
		}
	})
	e.Run()
}

func TestPMCrashDropsUnpersisted(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := NewPM(e, "pm", DefaultPMConfig(1<<20))
	e.Go("io", func(p *sim.Proc) {
		pm.WritePersist(p, 0, []byte("durable"))
		pm.Write(p, 100, []byte("volatile"))
		// Pre-crash reads see both.
		buf := make([]byte, 8)
		pm.ReadNoCost(100, buf)
		if string(buf) != "volatile" {
			t.Errorf("pre-crash read %q", buf)
		}
		pm.Crash()
		pm.ReadNoCost(100, buf)
		if string(buf) != "\x00\x00\x00\x00\x00\x00\x00\x00" {
			t.Errorf("post-crash read %q, want zeros", buf)
		}
		d := make([]byte, 7)
		pm.ReadNoCost(0, d)
		if string(d) != "durable" {
			t.Errorf("durable data lost: %q", d)
		}
	})
	e.Run()
}

func TestPMPartialPersist(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := NewPM(e, "pm", DefaultPMConfig(1<<20))
	e.Go("io", func(p *sim.Proc) {
		pm.Write(p, 0, []byte("abcdefgh"))
		pm.Persist(p, 0, 4) // only the first half
		pm.Crash()
		buf := make([]byte, 8)
		pm.ReadNoCost(0, buf)
		if !bytes.Equal(buf, []byte{'a', 'b', 'c', 'd', 0, 0, 0, 0}) {
			t.Errorf("partial persist gave %q", buf)
		}
	})
	e.Run()
}

func TestPMOverlayNewestWins(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := NewPM(e, "pm", DefaultPMConfig(1<<20))
	e.Go("io", func(p *sim.Proc) {
		pm.Write(p, 0, []byte("AAAA"))
		pm.Write(p, 2, []byte("BB"))
		buf := make([]byte, 4)
		pm.ReadNoCost(0, buf)
		if string(buf) != "AABB" {
			t.Errorf("overlay view = %q, want AABB", buf)
		}
		pm.Persist(p, 0, 4)
		pm.Crash()
		pm.ReadNoCost(0, buf)
		if string(buf) != "AABB" {
			t.Errorf("persisted = %q, want AABB", buf)
		}
	})
	e.Run()
}

func TestPMOverlayCompaction(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := NewPM(e, "pm", DefaultPMConfig(1<<20))
	e.Go("io", func(p *sim.Proc) {
		for i := 0; i < 5000; i++ {
			pm.WriteNoCost(int64(i*4), []byte{byte(i), byte(i >> 8), 1, 2})
		}
		buf := make([]byte, 4)
		pm.ReadNoCost(4*4999, buf)
		last := 4999
		if buf[0] != byte(last) || buf[1] != byte(last>>8) {
			t.Errorf("read after compaction = %v", buf)
		}
		pm.PersistAll()
		if pm.PendingBytes() != 0 {
			t.Errorf("pending after PersistAll = %d", pm.PendingBytes())
		}
	})
	e.Run()
}

func TestDMACopyTime(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	cfg := DMAConfig{Channels: 2, SetupLat: time.Microsecond, BytesPerSec: 1e9, IntrLat: 5 * time.Microsecond}
	d := NewDMA(e, cfg, nil)
	var polled, intr sim.Time
	e.Go("poll", func(p *sim.Proc) {
		d.Copy(p, 1000) // 1us setup + 1us copy
		polled = p.Now()
	})
	e.Go("intr", func(p *sim.Proc) {
		d.CopyIntr(p, 1000) // + 5us interrupt
		intr = p.Now()
	})
	e.Run()
	if polled != sim.Time(2*time.Microsecond) {
		t.Fatalf("polled copy took %v", polled)
	}
	if intr != sim.Time(7*time.Microsecond) {
		t.Fatalf("interrupt copy took %v", intr)
	}
}
