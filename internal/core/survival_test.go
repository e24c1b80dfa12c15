package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// TestConfigFieldsPinned lists core.Config's fields exactly: the embedded
// testbed layout, the eleven names it promotes (shared with assise.Config,
// which pins them too), then LineFS's own four. Each field is an option, and
// each independent option doubles the configurations tests and benchmarks
// must cover, so adding one is a deliberate diff against this list: the
// simplicity guide admits a new option only when two callers that exist in
// the tree (tests and examples do not count) need different values, and asks
// for a constant, or for a value worked out from a measurement the code
// already takes, otherwise.
func TestConfigFieldsPinned(t *testing.T) {
	t.Parallel()
	want := []string{
		"Layout",
		"Spec", "Nodes", "Replicas", "MaxClients", "VolSize", "LogSize", "ChunkSize",
		"DFSPrio", "HeartbeatEvery", "InodesPerVol", "InoRangePerClient",
		"Parallel", "Compress", "DisableCoalesce", "PubMode",
	}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		got = append(got, f.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("core.Config fields:\n got %v\nwant %v", got, want)
	}
}

// TestResendEvery pins the resend interval rule.
func TestResendEvery(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name       string
		owed, seen int64
		took, want time.Duration
	}{
		{"before the first sample", 4 << 20, 0, 0, standstill},
		{"after it: four times what as many bytes took", 1 << 20, 1 << 20, 5 * time.Millisecond, 20 * time.Millisecond},
		{"fewer bytes get the same", 4096, 1 << 20, 5 * time.Millisecond, 20 * time.Millisecond},
		{"floor: a fast chain is still given 10 ms", 16 << 10, 16 << 10, 150 * time.Microsecond, resendFloor},
		{"a slow ack stretches it", 4 << 20, 4 << 20, 75 * time.Millisecond, 300 * time.Millisecond}, // NotParallel + Compress
		{"a larger chunk than the one timed: scaled by size", 4 << 20, 4096, 150 * time.Microsecond, 4 * 150 * time.Microsecond << 10},
		{"a little larger: still the floor", 26 << 10, 14 << 10, 150 * time.Microsecond, resendFloor},
		{"but never beyond what the unobserved gets", 4 << 20, 4096, 28 * time.Millisecond, standstill},
	} {
		if got := resendEvery(c.owed, c.seen, c.took); got != c.want {
			t.Errorf("%s: resendEvery(%d, %d, %v) = %v, want %v", c.name, c.owed, c.seen, c.took, got, c.want)
		}
	}
}

// TestResendBacksOffToEightIntervals blackholes the chain's acks for good
// and reads the resend times off the primary: the first resend needs two
// sightings of the stuck watermark an interval apart, later ones come at 2,
// 4, 8, 8, … intervals, and the interval is the 10 ms floor on a chain that
// acked its first chunk in microseconds.
func TestResendBacksOffToEightIntervals(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	var at []time.Duration
	env.Go("app", func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/backoff")
		l.WriteAt(p, fd, 0, make([]byte, 4096))
		l.Fsync(p, fd) // the sample
		fp.SetRule("node1", "node0", rdma.FaultRule{Drop: 1})
		l.WriteAt(p, fd, 4096, make([]byte, 4096))
		sent := p.Now()
		env.Go("watch", func(wp *sim.Proc) {
			for seen := cl.Robust.RepResends; ; wp.Sleep(100 * time.Microsecond) {
				if cl.Robust.RepResends != seen {
					seen = cl.Robust.RepResends
					at = append(at, time.Duration(wp.Now()-sent))
				}
			}
		})
		l.Fsync(p, fd)
	})
	env.RunUntil(500 * time.Millisecond)
	if len(at) < 6 {
		t.Fatalf("saw %d resends in 500 ms, want at least 6: %v", len(at), at)
	}
	if at[0] < resendFloor || at[0] > 2*resendFloor+time.Millisecond {
		t.Errorf("first resend %v after the send, want between one and two %v intervals", at[0], resendFloor)
	}
	for i, want := range []time.Duration{2, 4, 8, 8, 8} {
		if gap := (at[i+1] - at[i]).Round(time.Millisecond); gap != want*resendFloor {
			t.Errorf("resend %d came %v after the one before, want %v", i+2, gap, want*resendFloor)
		}
	}
}

// TestDroppedFrameResentOnChaosCluster drops exactly one data frame on a
// cluster of the chaos harness's size, after the slot has seen one ack, and
// requires the repair — resend, ack, fsync return — within two resend
// intervals of the floor: the 10–20 ms the fixed 10 ms timer took, far inside
// the 120 s fault_test.go allows (its tests start their fault before the
// slot has any sample, and heal after 300 ms).
func TestDroppedFrameResentOnChaosCluster(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig() // sizes as internal/bench.chaosClusterConfig
	cfg.MaxClients = 2
	cfg.Spec.PMSize = 16 << 20
	cfg.VolSize = 8 << 20
	cfg.LogSize = 2 << 20
	cfg.ChunkSize = 256 << 10
	cfg.InodesPerVol = 2048
	cfg.InoRangePerClient = 512
	cfg.HeartbeatEvery = 200 * time.Millisecond
	env, cl := newTestCluster(t, cfg)
	fp := cl.InstallFaultPlane()
	var took time.Duration
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		l, _ := cl.Attach(p, 0)
		fd, _ := l.Create(p, "/one")
		l.WriteAt(p, fd, 0, make([]byte, 20<<10))
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		fp.SetRule("node0", "node1", rdma.FaultRule{Drop: 1})
		env.Go("heal", func(hp *sim.Proc) {
			for cl.Robust.FramesDropped == 0 {
				hp.Sleep(10 * time.Microsecond)
			}
			fp.ClearRules()
		})
		l.WriteAt(p, fd, 20<<10, make([]byte, 20<<10))
		start := p.Now()
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
		took = time.Duration(p.Now() - start)
	})
	if cl.Robust.FramesDropped != 1 || cl.Robust.RepResends == 0 {
		t.Fatalf("dropped %d frames, %d resends; want exactly one drop and a resend", cl.Robust.FramesDropped, cl.Robust.RepResends)
	}
	if took > 2*resendFloor+time.Millisecond {
		t.Errorf("fsync across one dropped frame took %v, want within two %v intervals", took, resendFloor)
	}
	if cl.Robust.RPCTimeouts != 0 {
		t.Errorf("%d control RPCs timed out on a repair that took %v", cl.Robust.RPCTimeouts, took)
	}
}

// TestSurvivalLayersIdleWhenFaultFree is "armed but idle": retransmit, RPC
// retry and their timers run in every cluster, and in a fault-free run none
// of them may act. The three shapes are the ones a fixed 10 ms / 25 ms pair
// tripped on: acks that take long because eight clients share the wire, or
// queue for the codec cores, and the slowest legitimate fsync in the tree —
// one thread doing 70 ms of LZW per chunk, 35 ms more at each replica — all
// from a cold start, where the slot has observed nothing yet. Each client's
// second round runs on what its first round sampled, and opens with a 4 KiB
// fsync so that the chunks behind it are timed by a sample 1000 times
// smaller than they are.
func TestSurvivalLayersIdleWhenFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("codes 90 MiB of LZW and decodes it twice: slow under the race detector, which has nothing to find here")
	}
	for _, shape := range []struct {
		name     string
		clients  int
		perRound int
		parallel bool
		compress bool
	}{
		{"8 clients saturating the wire", 8, 12 << 20, true, false},
		{"8 clients queueing on the codec gate", 8, 17 << 18, true, true},
		{"LineFS-NotParallel with Compress", 1, 17 << 19, false, true},
	} {
		// Not parallel, one shape at a time, small logs, and every client
		// rewriting the same 4 MiB of its file: 0.6 GB resident, alone.
		t.Run(shape.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxClients = shape.clients
			cfg.Spec.PMSize = 192 << 20
			cfg.VolSize = 128 << 20
			cfg.LogSize = 8 << 20
			cfg.Parallel, cfg.Compress = shape.parallel, shape.compress
			env, cl := newTestCluster(t, cfg)
			defer env.Shutdown()
			buf := make([]byte, 16<<10)
			sortRecords(rand.New(rand.NewSource(4)), 0.6)(buf)
			done := 0
			for i := 0; i < shape.clients; i++ {
				i := i
				env.Go("writer", func(p *sim.Proc) {
					l, err := cl.Attach(p, 0)
					if err != nil {
						t.Error(err)
						return
					}
					fd, _ := l.Create(p, fmt.Sprintf("/w%d", i))
					off := 0
					for _, size := range []int{shape.perRound, 4096, shape.perRound} {
						for end := off + size; off < end; {
							n, err := l.WriteAt(p, fd, uint64(off%(4<<20)), buf[:min(len(buf), end-off)])
							if err != nil {
								t.Error(err)
								return
							}
							off += n
						}
						if err := l.Fsync(p, fd); err != nil {
							t.Errorf("client %d at %d: %v", i, off, err)
							return
						}
					}
					done++
				})
			}
			env.RunUntil(60 * time.Second)
			if done != shape.clients {
				t.Fatalf("%d of %d clients finished", done, shape.clients)
			}
			if cl.Robust.Any() {
				t.Errorf("a survival layer acted in a fault-free run: %s", cl.Robust.Summary())
			}
		})
	}
}
