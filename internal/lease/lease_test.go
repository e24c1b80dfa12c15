package lease

import (
	"testing"
	"time"

	"linefs/internal/sim"
)

func newTable(ttl time.Duration) (*sim.Env, *Table) {
	e := sim.NewEnv(1)
	return e, NewTable(e, ttl)
}

func TestSingleWriter(t *testing.T) {
	t.Parallel()
	e, tb := newTable(time.Second)
	e.Go("t", func(p *sim.Proc) {
		ok, _ := tb.Acquire(5, "a", Write)
		if !ok {
			t.Error("first write grant failed")
		}
		ok, conflicts := tb.Acquire(5, "b", Write)
		if ok || len(conflicts) != 1 || conflicts[0] != "a" {
			t.Errorf("second writer: ok=%v conflicts=%v", ok, conflicts)
		}
		tb.Release(5, "a")
		if ok, _ := tb.Acquire(5, "b", Write); !ok {
			t.Error("grant after release failed")
		}
	})
	e.Run()
}

func TestMultipleReaders(t *testing.T) {
	t.Parallel()
	e, tb := newTable(time.Second)
	e.Go("t", func(p *sim.Proc) {
		for _, h := range []string{"a", "b", "c"} {
			if ok, _ := tb.Acquire(5, h, Read); !ok {
				t.Errorf("reader %s denied", h)
			}
		}
		ok, conflicts := tb.Acquire(5, "w", Write)
		if ok || len(conflicts) != 3 {
			t.Errorf("writer with readers: ok=%v conflicts=%v", ok, conflicts)
		}
	})
	e.Run()
}

func TestWriterImpliesRead(t *testing.T) {
	t.Parallel()
	e, tb := newTable(time.Second)
	e.Go("t", func(p *sim.Proc) {
		tb.Acquire(5, "a", Write)
		if !tb.Holds(5, "a", Read) || !tb.Holds(5, "a", Write) {
			t.Error("writer should hold both modes")
		}
		if ok, _ := tb.Acquire(5, "a", Read); !ok {
			t.Error("writer's own read denied")
		}
		// Readers blocked by a foreign writer.
		if ok, _ := tb.Acquire(5, "b", Read); ok {
			t.Error("reader granted under foreign writer")
		}
	})
	e.Run()
}

func TestExpiry(t *testing.T) {
	t.Parallel()
	e, tb := newTable(10 * time.Millisecond)
	e.Go("t", func(p *sim.Proc) {
		tb.Acquire(5, "a", Write)
		p.Sleep(11 * time.Millisecond)
		if tb.Holds(5, "a", Write) {
			t.Error("lease should have expired")
		}
		if ok, _ := tb.Acquire(5, "b", Write); !ok {
			t.Error("grant after expiry failed")
		}
	})
	e.Run()
}

func TestReacquireRefreshes(t *testing.T) {
	t.Parallel()
	e, tb := newTable(10 * time.Millisecond)
	e.Go("t", func(p *sim.Proc) {
		tb.Acquire(5, "a", Write)
		p.Sleep(8 * time.Millisecond)
		tb.Acquire(5, "a", Write) // refresh
		p.Sleep(8 * time.Millisecond)
		if !tb.Holds(5, "a", Write) {
			t.Error("refreshed lease expired early")
		}
	})
	e.Run()
}

func TestExpireHolder(t *testing.T) {
	t.Parallel()
	e, tb := newTable(time.Second)
	e.Go("t", func(p *sim.Proc) {
		tb.Acquire(5, "a", Write)
		tb.Acquire(6, "a", Read)
		tb.Acquire(7, "b", Write)
		if n := tb.ExpireHolder("a"); n != 2 {
			t.Errorf("expired %d grants, want 2", n)
		}
		if tb.Holds(5, "a", Write) || tb.Holds(6, "a", Read) {
			t.Error("holder leases survive expiry")
		}
		if !tb.Holds(7, "b", Write) {
			t.Error("unrelated lease dropped")
		}
	})
	e.Run()
}

// TestSnapshotRestore pins the lease state a table exports: the journal
// carries every grant as a full record (inode, holder, mode, expiry) and
// every dropped write lease as a release, in inode order for a bulk expiry,
// which is what NICFS persists and replicates.
func TestSnapshotRestore(t *testing.T) {
	t.Parallel()
	e, tb := newTable(time.Second)
	type entry struct {
		rec      Record
		released bool
	}
	var got []entry
	tb.Journal = func(rec Record, released bool) { got = append(got, entry{rec, released}) }
	e.Go("t", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		tb.Acquire(7, "a", Write)
		tb.Acquire(6, "b", Read)
		tb.Acquire(5, "a", Write)
		tb.ExpireHolder("a")
	})
	e.Run()
	exp := sim.Time(time.Second + time.Millisecond)
	want := []entry{
		{Record{Ino: 7, Holder: "a", Mode: Write, Expiry: exp}, false},
		{Record{Ino: 6, Holder: "b", Mode: Read, Expiry: exp}, false},
		{Record{Ino: 5, Holder: "a", Mode: Write, Expiry: exp}, false},
		{Record{Ino: 5, Holder: "a"}, true},
		{Record{Ino: 7, Holder: "a"}, true},
	}
	if len(got) != len(want) {
		t.Fatalf("journal = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("journal = %v, want %v", got, want)
		}
	}
}

func TestJournalHook(t *testing.T) {
	t.Parallel()
	e, tb := newTable(time.Second)
	var grants, releases int
	tb.Journal = func(rec Record, released bool) {
		if released {
			releases++
		} else {
			grants++
		}
	}
	e.Go("t", func(p *sim.Proc) {
		tb.Acquire(5, "a", Write)
		tb.Release(5, "a")
	})
	e.Run()
	if grants != 1 || releases != 1 {
		t.Fatalf("journal: grants=%d releases=%d", grants, releases)
	}
}
