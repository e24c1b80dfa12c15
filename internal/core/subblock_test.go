package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// logOf frames body as a client log would carry it: 16 KiB write entries,
// headers and CRCs included, until size bytes.
func logOf(body func(dst []byte), size int) []byte {
	var raw []byte
	data := make([]byte, 16<<10)
	for seq := uint64(1); len(raw) < size; seq++ {
		body(data)
		e := fs.Entry{Seq: seq, Type: fs.OpWrite, Ino: 3, Off: (seq - 1) * uint64(len(data)), Data: data}
		raw = e.AppendWire(raw)
	}
	return raw
}

// sortRecords is Figure 9's input shape (workload.genRecords): 100-byte
// records, a random 10-byte key, then zeros with probability zeroRatio and
// a 64-symbol alphabet otherwise.
func sortRecords(rng *rand.Rand, zeroRatio float64) func([]byte) {
	return func(dst []byte) {
		for i := range dst {
			switch {
			case i%100 < 10:
				dst[i] = byte(rng.Intn(256))
			case rng.Float64() >= zeroRatio:
				dst[i] = byte('A' + rng.Intn(64))
			default:
				dst[i] = 0
			}
		}
	}
}

// poolBlocks is the whole-system benchmark's zipwrite shape
// (benchmark/gen.go): 4 KiB blocks cut at seeded offsets from a 1 MiB pool
// of random, text and zero runs, a third each.
func poolBlocks(rng *rand.Rand) func([]byte) {
	pool := make([]byte, 1<<20+4096)
	text := []byte("key=0000000000 val=linefs-sort-record ")
	for off, kind, run := 0, 0, 0; off < len(pool); kind++ {
		if kind%3 == 0 {
			run = 256 + rng.Intn(768)
		}
		dst := pool[off:min(off+run, len(pool))]
		switch kind % 3 {
		case 0:
			rng.Read(dst)
		case 1:
			for i := range dst {
				dst[i] = text[i%len(text)]
			}
		}
		off += len(dst)
	}
	return func(dst []byte) {
		for b := 0; b < len(dst); b += 4096 {
			copy(dst[b:b+4096], pool[rng.Intn(1<<20):])
		}
	}
}

// TestSubBlockRoundTrip is the frame's round-trip property at the lengths
// where the sub-block count steps (64 KiB, and 1 MiB where a 16-core sender
// stops adding sub-blocks): what zipAll and frame put on the wire,
// decodeBatchChunk turns back into the same bytes, and input that LZW
// cannot shrink travels raw, lent rather than copied.
func TestSubBlockRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 4<<20+7)
	rng.Read(noise)
	text := logOf(sortRecords(rng, 0.6), 4<<20+7)
	enc, dec := compress.NewEncoder(), compress.NewDecoder()
	const cores = 16
	for _, n := range []int{0, 1, subBlockFloor - 1, subBlockFloor, subBlockFloor + 1, 1<<20 - 1, 1 << 20, 1<<20 + 1, 4<<20 + 7} {
		for _, src := range []struct {
			name string
			data []byte
			zips bool
		}{{"compressible", text, n > 64}, {"incompressible", noise, false}} {
			raw := src.data[:n]
			ck := &chunk{to: uint64(n), raw: raw}
			ck.zipAll(enc, subBlocksFor(n, cores))
			bc := ck.frame()
			if err := bc.checkTable(); err != nil {
				t.Fatalf("%s/%d: own frame fails its table check: %v", src.name, n, err)
			}
			switch {
			case !src.zips:
				if len(bc.SubLens) != 0 || len(bc.Payload) != n || (n > 0 && &bc.Payload[0] != &raw[0]) {
					t.Errorf("%s/%d: want the raw bytes lent as payload, got %d table entries, %d payload bytes",
						src.name, n, len(bc.SubLens), len(bc.Payload))
				}
			case len(bc.SubLens) != subBlocksFor(n, cores) || bc.wireLen() >= n:
				t.Errorf("%s/%d: %d table entries (want %d), %d wire bytes", src.name, n, len(bc.SubLens), subBlocksFor(n, cores), bc.wireLen())
			}
			got := make([]byte, n)
			if err := decodeBatchChunk(dec, got, &bc); err != nil {
				t.Fatalf("%s/%d: decode of own frame: %v", src.name, n, err)
			}
			if !bytes.Equal(got, raw) {
				t.Fatalf("%s/%d: round trip changed the bytes", src.name, n)
			}
		}
	}
}

// TestSubBlockingCostsUnderOnePercent re-measures what cutting one
// sub-block per core rests on: coding a 4 MiB chunk as 16 independent
// sub-blocks (table included) must cost under 1 % more wire bytes than
// coding it whole, on the payloads fig9 and the whole-system benchmark
// replicate. With -v the log lines are DESIGN.md §11's table: fixed cuts
// down to the 64 KiB floor, and a 2 MiB fsync tail cut 16 ways, which is
// what a chunk under 4 MiB pays.
func TestSubBlockingCostsUnderOnePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("single-threaded codec arithmetic: 10+ s under the race detector and nothing for it to find")
	}
	t.Parallel()
	enc := compress.NewEncoder()
	var scratch []byte
	cut := func(raw []byte, size int) (wire int) {
		for lo := 0; lo < len(raw); lo += size {
			scratch = enc.CompressInto(scratch[:0], raw[lo:min(lo+size, len(raw))])
			wire += len(scratch) + subLenBytes
		}
		return wire
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, in := range []struct {
			name string
			body func([]byte)
		}{
			{"fig9 40% zeros", sortRecords(rng, 0.4)},
			{"fig9 60% zeros", sortRecords(rng, 0.6)},
			{"fig9 80% zeros", sortRecords(rng, 0.8)},
			{"benchmark zipwrite", poolBlocks(rng)},
		} {
			raw := logOf(in.body, 4<<20)
			sixteen := func(raw []byte) (whole, wire int) {
				ck := &chunk{raw: raw}
				ck.zipAll(enc, subBlocksFor(len(raw), 16))
				return cut(raw, len(raw)) - subLenBytes, ck.frame().wireLen()
			}
			whole, wire := sixteen(raw)
			cost := func(wire, whole int) float64 { return 100 * (float64(wire)/float64(whole) - 1) }
			if c := cost(wire, whole); c > 1 {
				t.Errorf("seed %d %s: 16 sub-blocks cost %+.2f%% wire bytes, want <= 1%%", seed, in.name, c)
			}
			if testing.Verbose() { // the other columns of the table
				tailWhole, tailWire := sixteen(raw[:2<<20])
				t.Logf("seed %d %-18s whole %7d B (%.3f of raw)  512K %+.2f%%  256K %+.2f%%  /16 %+.2f%%  128K %+.2f%%  64K %+.2f%%  2M tail /16 %+.2f%%",
					seed, in.name, whole, float64(whole)/float64(len(raw)),
					cost(cut(raw, 512<<10), whole), cost(cut(raw, 256<<10), whole), cost(wire, whole),
					cost(cut(raw, 128<<10), whole), cost(cut(raw, 64<<10), whole), cost(tailWire, tailWhole))
			}
		}
	}
}

// TestCrashMidSubBlocks crashes a NICFS — the primary's, the mid-chain
// replica's, the tail replica's — while a 4 MiB chunk's sub-blocks are half
// coded (half decoded on a replica). The sub-block helpers die with the
// compress-stage worker or mirror thread that started them, and those are
// what clientState.kill and mirrorState.kill reach: none may go on computing
// on the dead SmartNIC, the codec gate must come free, and Env.Shutdown must
// find nothing stuck. The client's fsync must fare exactly as it does when
// the same node dies with an uncompressed chunk in flight: an error when its
// own NICFS is gone (the call times out with the log tail at a standstill,
// and the retry finds no service), released by the manager's resweep when
// the tail is. The mid-chain replica relays a compressed frame before it
// decodes it, so node 2 holds the chunk before node 1's cores start on it:
// node 1 dying mid-decode releases the fsync after the resweep too (an
// uncompressed frame spends no time in that state to compare with).
func TestCrashMidSubBlocks(t *testing.T) {
	t.Parallel()
	type outcome struct{ crashed, fsyncDone, fsyncErr bool }
	crashMidChunk := func(victim int, zip bool) (oc outcome) {
		cfg := testConfig()
		cfg.ChunkSize = 4 << 20
		cfg.HeartbeatEvery = 200 * time.Millisecond
		cfg.Compress = zip
		env, cl := newTestCluster(t, cfg)
		defer env.Shutdown() // panics if a killed worker will not unwind
		nic := cl.Machines[victim].NICCPU
		var busyAfterCrash time.Duration
		payload := logOf(sortRecords(rand.New(rand.NewSource(9)), 0.6), 4<<20)[:4<<20]
		env.Go("app", func(p *sim.Proc) {
			l, _ := cl.Attach(p, 0)
			fd, _ := l.Create(p, "/mid")
			l.WriteAt(p, fd, 0, payload)
			oc.fsyncErr = l.Fsync(p, fd) != nil
			oc.fsyncDone = true
		})
		env.Go("crasher", func(p *sim.Proc) {
			const step = 50 * time.Microsecond
			var coding time.Duration // how long the victim's cores have been on the chunk
			for ; !oc.crashed; p.Sleep(step) {
				cs := cl.NICs[0].clients[0]
				if cs == nil || len(cs.pending) == 0 {
					continue
				}
				ck := cs.pending[0]
				if !ck.valid || ck.replicated.Triggered() {
					continue
				}
				switch {
				case !zip:
					oc.crashed = victim == 0 || ck.sent.Triggered()
				case cl.NICs[victim].codecGate.InUse() > 0:
					// The chunk's 16 sub-blocks share 15 cores for 4.7 ms of
					// coding and 2.4 ms of decoding: a millisecond in, every
					// helper is mid-way.
					coding += step
					oc.crashed = coding >= time.Millisecond
				}
			}
			cl.NICs[victim].Crash()
			p.Sleep(time.Millisecond) // killed workers unwind at once; let them
			busyAfterCrash = nic.Util.TotalBusy()
			if cl.NICs[victim].codecGate.InUse() != 0 {
				t.Errorf("victim %d zip=%v: codec gate still held after the crash", victim, zip)
			}
		})
		env.RunUntil(20 * time.Second)
		if !oc.crashed {
			t.Fatalf("victim %d zip=%v: never caught the chunk half coded", victim, zip)
		}
		if busy := nic.Util.TotalBusy(); busy != busyAfterCrash {
			t.Errorf("victim %d zip=%v: dead SmartNIC computed for another %v", victim, zip, busy-busyAfterCrash)
		}
		return oc
	}
	for _, victim := range []int{0, 2} {
		plain, zipped := crashMidChunk(victim, false), crashMidChunk(victim, true)
		if plain != zipped {
			t.Errorf("NICFS %d crash mid-chunk: uncompressed %+v, compressed %+v", victim, plain, zipped)
		}
		if failed := victim == 0; !zipped.fsyncDone || zipped.fsyncErr != failed {
			t.Errorf("NICFS %d crash mid-chunk: fsync %+v, want it to return, with an error=%v", victim, zipped, failed)
		}
	}
	if oc := crashMidChunk(1, true); !oc.fsyncDone || oc.fsyncErr {
		t.Errorf("mid-chain crash mid-decode: fsync %+v, want it released without an error", oc)
	}
}

// TestFsyncTailCodesOnEveryCore: a compressed fsync's tail is a chunk under
// 4 MiB, and it still holds the codec gate for no longer than its codec time
// spread over every core the pool grants (all but the one the low-latency
// class keeps), at the primary and at each replica. Its sender cuts it into
// one sub-block per core; cut into fixed 256 KiB sub-blocks, this 2 MiB tail
// was 9 of them, and each hold was one sub-block's whole time (4.4 ms coding,
// 2.2 ms decoding) on 9 of 15 cores.
func TestFsyncTailCodesOnEveryCore(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Compress, cfg.ChunkSize = true, 4<<20 // 2 MiB of writes rings no doorbell
	env, cl := newTestCluster(t, cfg)
	defer env.Shutdown()
	var frame batchChunk // the sync chunk, as replica 1 gets it
	tapNIC(env, cl, 1, func(m *rdma.Msg) bool {
		if rb, ok := m.Arg.(*replChunkBatch); ok {
			frame = rb.Chunks[len(rb.Chunks)-1]
		}
		return true
	})
	// The tail is the only chunk any codec gate serves: a node's longest
	// hold is its codec time for it.
	var hold [3]time.Duration
	done := false
	for i, n := range cl.NICs {
		env.Go("watch", func(p *sim.Proc) {
			var since sim.Time
			busy := false
			for ; !done; p.Sleep(time.Microsecond) {
				switch now := n.codecGate.InUse() > 0; {
				case now && !busy:
					since, busy = p.Now(), true
				case !now && busy:
					hold[i], busy = max(hold[i], time.Duration(p.Now()-since)), false
				}
			}
		})
	}
	buf := make([]byte, 2<<20)
	sortRecords(rand.New(rand.NewSource(11)), 0.6)(buf)
	run(t, env, 10*time.Second, func(p *sim.Proc) {
		defer func() { done = true }()
		l, err := cl.Attach(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd, _ := l.Create(p, "/tail")
		for off := 0; off < len(buf); off += 16 << 10 {
			if _, err := l.WriteAt(p, fd, uint64(off), buf[off:off+16<<10]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Fsync(p, fd); err != nil {
			t.Fatal(err)
		}
	})
	if len(frame.SubLens) != cfg.Spec.NICCores {
		t.Errorf("the %d-byte sync chunk's frame has %d table entries, want one per NIC core (%d)",
			frame.RawLen, len(frame.SubLens), cfg.Spec.NICCores)
	}
	pool := time.Duration(cfg.Spec.NICCores - 1)
	for i, h := range hold {
		bw, what := cfg.Spec.CompressBW, "codes"
		if i > 0 {
			bw, what = 2*bw, "decodes"
		}
		limit := cl.Machines[i].NICCPU.Scale(codecCost(frame.RawLen, bw)) * 11 / 10 / pool
		t.Logf("node %d %s the %d-byte tail in %v (bound %v)", i, what, frame.RawLen, h, limit)
		if h == 0 || h > limit {
			t.Errorf("node %d %s the %d-byte tail in %v, want at most 1.1 x its codec time over %d cores (%v)",
				i, what, frame.RawLen, h, pool, limit)
		}
	}
}

// TestZipAllReservesItsPayloadOnce codes a fresh 4 MiB chunk of the
// zipwrite shape into its sixteen sub-blocks, then the same chunk again as
// the pool recycles it: the fresh one allocates only its payload buffer,
// reserved at the raw length before the first sub-block, and the recycled
// one nothing. Not parallel: AllocsPerRun reads process-wide counters.
func TestZipAllReservesItsPayloadOnce(t *testing.T) {
	if compress.BorrowSanitizerEnabled() {
		t.Skip("borrow-sanitizer forces fresh allocations by design")
	}
	raw := logOf(poolBlocks(rand.New(rand.NewSource(1))), 4<<20)
	enc := compress.NewEncoder()
	k := subBlocksFor(len(raw), 16)
	ck := &chunk{raw: raw}
	fresh := testing.AllocsPerRun(3, func() {
		ck.cbuf, ck.zipLens, ck.subLens = nil, nil, nil
		ck.zipAll(enc, k)
	})
	if ck.subLens == nil {
		t.Fatalf("corpus did not compress: %d -> %d bytes", len(raw), len(ck.cbuf))
	}
	if fresh > 1 {
		t.Errorf("zipAll on a fresh chunk: %v allocs, want at most 1", fresh)
	}
	recycled := testing.AllocsPerRun(3, func() {
		ck.cbuf, ck.zipLens, ck.subLens = ck.cbuf[:0], ck.zipLens[:0], nil
		ck.zipAll(enc, k)
	})
	if recycled != 0 {
		t.Errorf("zipAll on a recycled chunk: %v allocs, want 0", recycled)
	}
}

// TestReplHotLoopAllocatesNothing runs the pooled replication hot path —
// payload staging, sub-block coding and a mirror's frame decode, every
// buffer warm — and wants 0 allocs per iteration: the //linefs:hotpath
// annotations hold at run time. Not parallel: AllocsPerRun reads
// process-wide counters.
func TestReplHotLoopAllocatesNothing(t *testing.T) {
	if compress.BorrowSanitizerEnabled() || fs.BorrowSanitizerEnabled() {
		t.Skip("borrow-sanitizer forces fresh allocations by design")
	}
	loop, err := ReplHotLoop()
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, loop); a != 0 {
		t.Errorf("ReplHotLoop steady state: %v allocs/op, want 0", a)
	}
}
