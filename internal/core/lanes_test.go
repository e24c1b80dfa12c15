package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"linefs/internal/fs"
	"linefs/internal/lease"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// lanesConfig is testConfig with inode numbers for all four client slots.
func lanesConfig() Config {
	cfg := testConfig()
	cfg.InodesPerVol = 4*cfg.InoRangePerClient + 16
	return cfg
}

// fanInFsyncP50 runs clients clients of node 0 side by side, each doing 64
// rounds of a 4 KiB write + fsync on a file of its own, and returns the
// slowest client's median fsync.
func fanInFsyncP50(t *testing.T, clients int) time.Duration {
	t.Helper()
	env, cl := newTestCluster(t, lanesConfig())
	defer env.Shutdown()
	payload := bytes.Repeat([]byte{0x4C}, 4<<10)
	var worst time.Duration
	done := 0
	for i := 0; i < clients; i++ {
		env.Go("fanin", func(p *sim.Proc) {
			l, err := cl.Attach(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			fd, _ := l.Create(p, fmt.Sprintf("/fanin%d", i))
			lat := make([]time.Duration, 64)
			for r := range lat {
				if _, err := l.WriteAt(p, fd, uint64(r*len(payload)), payload); err != nil {
					t.Error(err)
					return
				}
				start := p.Now()
				if err := l.Fsync(p, fd); err != nil {
					t.Error(err)
					return
				}
				lat[r] = time.Duration(p.Now() - start)
			}
			sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
			worst = max(worst, lat[len(lat)/2])
			done++
		})
	}
	env.RunUntil(10 * time.Second)
	if done != clients {
		t.Fatalf("%d of %d clients finished", done, clients)
	}
	assertNoStaleAcks(t, cl)
	if cl.Robust.Any() {
		t.Errorf("a survival layer acted in a fault-free run: %s", cl.Robust.Summary())
	}
	return worst
}

// TestLowLatClassScalesWithConnections is the mechanism's own claim: clients
// that share nothing but their NICFS do not queue on each other's small
// operations. A 4 KiB fsync is four low-latency messages on the primary (the
// fsync, the chunk's two acks, an open or lease now and then); with one
// poller for every connection four clients' messages stood in one line —
// at the parent commit the 4-client p50 is 2.62 x the 1-client one (358.2 us
// against 136.6) and the 2-client p50 1.38 x (188.1 us). With a lane per
// connection each client's line is its own: 1.00 x at both.
func TestLowLatClassScalesWithConnections(t *testing.T) {
	t.Parallel()
	one := fanInFsyncP50(t, 1)
	for _, clients := range []int{2, 4} {
		p50 := fanInFsyncP50(t, clients)
		t.Logf("%d clients: per-client fsync p50 %v (1 client: %v, %.2fx)", clients, p50, one, float64(p50)/float64(one))
		if float64(p50) > 1.10*float64(one) {
			t.Errorf("%d clients: per-client fsync p50 %v, want within 1.10 x the 1-client %v", clients, p50, one)
		}
	}
}

// TestPerConnectionOrderKept holds the one order the protocol does assume:
// a queue pair's, on connections of either class.
//
// Low-latency: two cumulative acks one replica sends one after the other
// must be applied in that order even when dispatching them message by
// message would not: the first finds the reserved core taken by another
// connection's message and every pool core inside a long time slice, the
// second arrives when the reserved core is free again. Applied out of order
// the first would arrive below the watermark and be counted stale. (The
// fault-free half — two clients, no stale ack, no robustness counter — is
// asserted by every fanInFsyncP50 run above.)
//
// Bulk: two lease records one peer sends back to back are handled one after
// the other, so the second reaches the journal a dispatch after the first. A
// pool of workers on one queue would handle them side by side and persist
// both within one dispatch of their arrival.
func TestPerConnectionOrderKept(t *testing.T) {
	t.Parallel()
	t.Run("low-latency", func(t *testing.T) {
		env, cl := newTestCluster(t, testConfig())
		defer env.Shutdown()
		n, cpu := cl.NICs[0], cl.Machines[0].NICCPU
		run(t, env, 10*time.Second, func(p *sim.Proc) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			cs := n.clients[a.backend.slot]

			// Bulk work holds all fifteen pool cores in 10 ms slices.
			cpu.Slice = 10 * time.Millisecond
			for i := 1; i < cpu.NumCores(); i++ {
				env.Go("hog", func(hp *sim.Proc) { cpu.Compute(hp, time.Second, 0, "hog") })
			}
			p.Sleep(time.Millisecond)
			if got := cpu.Cores.InUse(); got != cpu.NumCores() {
				t.Fatalf("%d of %d cores busy, want the pool hogged and the reserve held", got, cpu.NumCores())
			}

			// Another connection's message takes the reserved core for 30 us;
			// its op is one no lane serves.
			other := rdma.Dial(cl.Machines[2].Port, cl.Machines[0].Port, svcNICFS, true)
			_ = other.Send(p, "no-such-op", nil, 24)
			acks := cl.NICs[1].peer(0, true)
			_ = acks.Send(p, "repl-ack", &replAck{Slot: cs.slot, Node: "node1", To: 100}, 24)
			if n.lowCore != nil {
				t.Fatal("the reserved core is free: the first ack did not have to go to the pool")
			}
			p.Sleep(50 * time.Microsecond)
			_ = acks.Send(p, "repl-ack", &replAck{Slot: cs.slot, Node: "node1", To: 200}, 24)
			if n.lowCore == nil || cs.snd.water[1] != 0 {
				t.Fatalf("second ack arrived with reserved core free=%v, watermark %d: want a free core and the first ack still waiting",
					n.lowCore != nil, cs.snd.water[1])
			}
			p.Sleep(50 * time.Millisecond)
			if cs.snd.water[1] != 200 || n.AckMsgs != 2 {
				t.Errorf("watermark %d after %d acks, want 200 after 2", cs.snd.water[1], n.AckMsgs)
			}
		})
		assertNoStaleAcks(t, cl)
	})
	t.Run("bulk", func(t *testing.T) {
		env, cl := newTestCluster(t, testConfig())
		defer env.Shutdown()
		pcie := cl.Machines[0].PCIe
		dispatch := cl.Machines[0].NICCPU.Scale(cl.Cfg.Spec.NICRPCCost)
		run(t, env, time.Second, func(p *sim.Proc) {
			p.Sleep(time.Millisecond) // past start-up's PM writes
			base := pcie.Bytes.Total()
			records := cl.NICs[1].peer(0, false)
			for i := 0; i < 2; i++ {
				_ = records.Send(p, "lease-record", &leaseRecord{}, len(leaseRecordZero))
			}
			p.Sleep(dispatch * 3 / 2)
			if got := pcie.Bytes.Total() - base; got != int64(len(leaseRecordZero)) {
				t.Errorf("%d journal bytes written 1.5 dispatches after two records, want the first record's %d alone", got, len(leaseRecordZero))
			}
			p.Sleep(dispatch)
			if got := pcie.Bytes.Total() - base; got != 2*int64(len(leaseRecordZero)) {
				t.Errorf("%d journal bytes written 2.5 dispatches after two records, want both records'", got)
			}
		})
	})
}

// TestReservedCoreStaysReserved pins what the lanes did not take: the
// low-latency class still keeps exactly one SmartNIC core out of the pool —
// with lanes started and idle, fifteen are grantable to priority-0 work, as
// with the poller — and the codec still spreads a chunk over one helper per
// core (16: a 1 MiB chunk of 16 KiB writes, entry headers included, is cut
// into one sub-block per SmartNIC core, the reserved one counted).
func TestReservedCoreStaysReserved(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Compress = true
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	buf := make([]byte, 17<<18)
	sortRecords(rand.New(rand.NewSource(4)), 0.6)(buf)
	done := 0
	for i := 0; i < 2; i++ {
		env.Go("writer", func(p *sim.Proc) {
			l, err := cl.Attach(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			fd, _ := l.Create(p, fmt.Sprintf("/zip%d", i))
			for off := 0; off < len(buf); off += 16 << 10 {
				if _, err := l.WriteAt(p, fd, uint64(off), buf[off:off+16<<10]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := l.Fsync(p, fd); err != nil {
				t.Error(err)
				return
			}
			done++
		})
	}
	env.RunUntil(20 * time.Second)
	if done != 2 {
		t.Fatalf("%d of 2 writers finished", done)
	}
	if peak := cl.NICs[0].CompressPeakWorkers(); peak != cfg.Spec.NICCores {
		t.Errorf("CompressPeakWorkers = %d, want one per core (%d)", peak, cfg.Spec.NICCores)
	}
	cores := cl.Machines[0].NICCPU.Cores
	if cores.InUse() != 1 {
		t.Fatalf("%d cores in use on an idle NIC, want the reserved one alone", cores.InUse())
	}
	granted := 0
	for cores.TryAcquire() {
		granted++
	}
	if want := cores.Cap() - 1; granted != want {
		t.Errorf("%d cores grantable to the pool, want %d", granted, want)
	}
}

// TestLeaseHandOverIsAtomicAcrossLanes ping-pongs one inode's write lease
// between two clients, each on its own connection and so its own lane. A
// client believes it holds the lease from the moment a grant's reply reaches
// it until a revocation notice does. The hand-over — refusal, notice to the
// holder, removal, grant, reply — yields at the notice; one poller made it
// atomic by accident, and without leaseGate the holder's own re-acquire,
// dispatched in that gap, is granted as a refresh of the lease being taken
// away: both clients then hold it. At no grant may the other client still
// believe, which also says every notice arrived before the competing reply.
func TestLeaseHandOverIsAtomicAcrossLanes(t *testing.T) {
	t.Parallel()
	env, cl := newTestCluster(t, testConfig())
	defer env.Shutdown()
	const ino, rounds = fs.Ino(4242), 300
	holds := map[string]bool{}
	grants, revokes, done := 0, 0, 0
	for i := 0; i < 2; i++ {
		env.Go("pingpong", func(p *sim.Proc) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				t.Error(err)
				return
			}
			b := a.backend
			// Tap the client's notification service: a revoke ends its
			// belief on delivery, before the client library hears of it.
			tap := sim.NewQueue[*rdma.Msg](env, 0)
			cl.Machines[0].HostPort.Register(clientService(b.slot), tap)
			env.Go("tap", func(tp *sim.Proc) {
				for {
					m, ok := tap.Get(tp)
					if !ok {
						return
					}
					if m.Op == "revoke" {
						holds[b.id] = false
						revokes++
					}
					b.svcQ.Put(tp, m)
				}
			})
			for r := 0; r < rounds; r++ {
				ok, err := b.AcquireLease(p, ino, lease.Write)
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					grants++
					for id, held := range holds {
						if held && id != b.id {
							t.Errorf("round %d at %v: %s granted the write lease while %s still holds it", r, p.Now(), b.id, id)
						}
					}
					holds[b.id] = true
				}
				// Unequal paces walk the two requests' phase through every
				// overlap of one hand-over with the other's acquire.
				p.Sleep(time.Duration(3+4*i) * time.Microsecond)
			}
			done++
		})
	}
	env.RunUntil(10 * time.Second)
	if done != 2 {
		t.Fatalf("%d of 2 clients finished", done)
	}
	if revokes < rounds/2 || grants < rounds {
		t.Errorf("%d grants, %d revocations in %d rounds each: the lease did not ping-pong", grants, revokes, rounds)
	}
}

// TestCrashWithQueuedLowLatMessages crashes the primary's NICFS with work in
// two lanes — two opens of one client, an fsync and an open of another, each
// lane's first message in dispatch and its second queued. Nothing may hang:
// the dead lanes' requests are answered by the callers' own deadlines (an
// error once the retry finds the service gone), Shutdown finds every process
// unwound, and after Recover the same connections get fresh lanes — both
// clients' retried opens succeed. Primary-side per-client pipeline state does
// not outlive a NICFS crash (it did not at the parent either), so the retried
// write+fsync runs on a fresh attachment, as a restarted LibFS would; every
// byte an fsync acknowledged, before the crash or after, is on all replicas.
func TestCrashWithQueuedLowLatMessages(t *testing.T) {
	t.Parallel()
	cfg := lanesConfig()
	cfg.HeartbeatEvery = 100 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	n := cl.NICs[0]
	acked := map[string][]byte{}
	writeSync := func(p *sim.Proc, a *Attachment, path string, fill byte) {
		t.Helper()
		data := bytes.Repeat([]byte{fill}, 8<<10)
		fd, err := a.Create(p, path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.WriteAt(p, fd, 0, data); err != nil {
			t.Fatal(err)
		}
		if err := a.Fsync(p, fd); err != nil {
			t.Fatalf("fsync %s: %v", path, err)
		}
		acked[path] = data
	}
	run(t, env, 60*time.Second, func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		b, _ := cl.Attach(p, 0)
		writeSync(p, a, "/a", 0xA1)
		writeSync(p, b, "/b", 0xB1)
		p.Sleep(time.Second) // published: NICFS resolves both paths
		fdb, _ := b.Open(p, "/b", true)
		if _, err := b.WriteAt(p, fdb, 8<<10, []byte("never acknowledged")); err != nil {
			t.Fatal(err)
		}

		var errs []error
		call := func(name string, fn func(cp *sim.Proc) error) {
			env.Go(name, func(cp *sim.Proc) { errs = append(errs, fn(cp)) })
		}
		call("a/open", func(cp *sim.Proc) error { return a.backend.OpenCheck(cp, "/a") })
		call("a/open", func(cp *sim.Proc) error { return a.backend.OpenCheck(cp, "/a") })
		call("b/fsync", func(cp *sim.Proc) error { return b.Fsync(cp, fdb) })
		call("b/open", func(cp *sim.Proc) error { return b.backend.OpenCheck(cp, "/b") })
		p.Sleep(10 * time.Microsecond)
		for _, c := range []*rdma.Conn{a.backend.lowConn, b.backend.lowConn} {
			if q := n.lanes[c]; q == nil || q.Len() != 1 {
				t.Fatalf("lane not loaded at the crash: %v", q)
			}
		}
		n.Crash()

		p.Sleep(2 * time.Second)
		if len(errs) != 4 {
			t.Fatalf("%d of 4 calls parked in dead lanes returned", len(errs))
		}
		for _, err := range errs {
			if err == nil {
				t.Error("a call queued in a crashed NICFS succeeded")
			}
		}
		if cl.Robust.RPCTimeouts != 4 {
			t.Errorf("%d RPC timeouts, want one per parked call", cl.Robust.RPCTimeouts)
		}

		if err := n.Recover(p, 1); err != nil {
			t.Fatalf("recover: %v", err)
		}
		p.Sleep(time.Second)
		for _, c := range []*Attachment{a, b} {
			if err := c.backend.OpenCheck(p, "/a"); err != nil {
				t.Errorf("%s: retried open after recovery: %v", c.backend.id, err)
			}
		}
		c, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatalf("attach after recovery: %v", err)
		}
		writeSync(p, c, "/c", 0xC1)
		p.Sleep(2 * time.Second)
	})
	for path, want := range acked {
		assertReplicasHold(t, cl, path, want)
	}
}
