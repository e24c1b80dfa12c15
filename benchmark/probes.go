package main

import (
	"fmt"
	"runtime"
	"time"

	"linefs/internal/compress"
	"linefs/internal/core"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/lease"
	"linefs/internal/pipeline"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// Layer probes: fixed-iteration loops over a layer's exported API, timed on
// the host. Iteration counts are constants so that two commits do the same
// work; each probe lasts some tens of milliseconds. Every probe is one span
// (layer = the package probed).

const probeIO = 16 << 10

// probe times f and records it as a span; it returns the elapsed seconds.
func probe(rec *recorder, layer, name string, f func()) float64 {
	id := rec.open(-1, -1, layer, "probe:"+name, 0)
	t0 := time.Now()
	f()
	el := time.Since(t0).Seconds()
	rec.close(id, 0)
	return el
}

func runProbes(rec *recorder, seed int64, l map[string]float64) {
	probeSim(rec, l)
	probePM(rec, l)
	probeRDMA(rec, l)
	probeFS(rec, l)
	probeCompress(rec, seed, l)
	probePipeline(rec, l)
	probeCore(rec, l)
	probeLease(rec, l)
}

func probeSim(rec *recorder, l map[string]float64) {
	const events = 1_000_000
	spin := func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	}
	{ // one process re-arming its own timer: schedule, heap pop, inline wake
		env := sim.NewEnv(1)
		env.Go("spinner", spin)
		el := probe(rec, "sim", "timer", func() { env.RunFor(events * time.Microsecond) })
		l["sim.timer_events_per_s"] = events / el
		env.Shutdown()
	}
	{ // two processes alternating: one goroutine handoff per event
		env := sim.NewEnv(1)
		env.Go("ping", spin)
		env.Go("pong", spin)
		el := probe(rec, "sim", "handoff", func() { env.RunFor(events / 2 * time.Microsecond) })
		l["sim.handoff_events_per_s"] = events / el
		env.Shutdown()
	}
	{ // eight processes contending for a two-unit resource
		env := sim.NewEnv(1)
		res := sim.NewResource(env, 2)
		grants := 0
		for i := 0; i < 8; i++ {
			env.Go("user", func(p *sim.Proc) {
				for {
					res.Acquire(p, 0)
					p.Sleep(time.Microsecond)
					grants++
					res.Release()
				}
			})
		}
		el := probe(rec, "sim", "resource", func() { env.RunFor(events / 8 * time.Microsecond) })
		l["sim.resource_grants_per_s"] = float64(grants) / el
		env.Shutdown()
	}
	{ // producer and consumer over a bounded queue
		env := sim.NewEnv(1)
		q := sim.NewQueue[int](env, 4)
		moved := 0
		env.Go("prod", func(p *sim.Proc) {
			for i := 0; ; i++ {
				q.Put(p, i)
				p.Sleep(time.Microsecond)
			}
		})
		env.Go("cons", func(p *sim.Proc) {
			for {
				q.Get(p)
				moved++
			}
		})
		el := probe(rec, "sim", "queue", func() { env.RunFor(events / 4 * time.Microsecond) })
		l["sim.queue_ops_per_s"] = float64(moved) / el
		env.Shutdown()
	}
}

func probePM(rec *recorder, l map[string]float64) {
	const size = 64 << 20
	env := sim.NewEnv(1)
	buf := make([]byte, probeIO)
	for i := range buf {
		buf[i] = byte(i)
	}
	sweep := func(pm *hw.PM) {
		for off := int64(0); off < size; off += probeIO {
			pm.WriteNoCost(off, buf)
			pm.PersistNoCost(off, probeIO)
		}
	}
	pm := hw.NewPM(env, "probe", hw.DefaultPMConfig(size))
	el := probe(rec, "hw", "pm_first_touch", func() { sweep(pm) })
	l["hw.pm_first_touch_gbps"] = size / el / 1e9
	el = probe(rec, "hw", "pm_write", func() { sweep(pm); sweep(pm) })
	l["hw.pm_write_gbps"] = 2 * size / el / 1e9
	el = probe(rec, "hw", "pm_read", func() {
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < size; off += probeIO {
				pm.ReadNoCost(off, buf)
			}
		}
	})
	l["hw.pm_read_gbps"] = 2 * size / el / 1e9
}

func probeRDMA(rec *recorder, l map[string]float64) {
	const calls = 10000
	env := sim.NewEnv(1)
	fab := rdma.NewFabric(env, 1500*time.Nanosecond)
	a, b := fab.NewNIC("a", 2.75e9), fab.NewNIC("b", 2.75e9)
	q := sim.NewQueue[*rdma.Msg](env, 0)
	b.Register("echo", q)
	env.Go("server", func(p *sim.Proc) {
		for {
			m, ok := q.Get(p)
			if !ok {
				return
			}
			m.Respond(p, nil, 64)
		}
	})
	conn := rdma.Dial(a, b, "echo", true)
	var simNs int64
	env.Go("caller", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < calls; i++ {
			if _, err := conn.Call(p, "echo", nil, 64); err != nil {
				panic(fmt.Sprintf("rdma probe: %v", err))
			}
		}
		simNs = int64(p.Now() - start)
		env.Stop()
	})
	el := probe(rec, "rdma", "call", env.Run)
	l["rdma.call_sim_us"] = float64(simNs) / calls / 1e3
	l["rdma.call_host_ns"] = el * 1e9 / calls
	env.Shutdown()
}

func probeFS(rec *recorder, l map[string]float64) {
	const chunk = 4 << 20
	const passes = 8
	data := make([]byte, probeIO)
	for i := range data {
		data[i] = byte(i * 7)
	}
	entry := fs.Entry{Type: fs.OpWrite, Ino: 3, Data: data}
	perChunk := chunk / entry.WireSize()

	wire := make([]byte, 0, chunk)
	el := probe(rec, "fs", "log_encode", func() {
		for pass := 0; pass < passes; pass++ {
			wire = wire[:0]
			for i := 0; i < perChunk; i++ {
				entry.Seq, entry.Off = uint64(i), uint64(i)*probeIO
				wire = entry.AppendWire(wire)
			}
		}
	})
	l["fs.log_encode_entries_per_s"] = float64(passes*perChunk) / el

	el = probe(rec, "fs", "log_decode", func() {
		var e fs.Entry
		for pass := 0; pass < passes; pass++ {
			for off := 0; off < len(wire); {
				n, err := fs.DecodeEntryInto(&e, wire[off:])
				if err != nil {
					panic(fmt.Sprintf("fs probe: decode: %v", err))
				}
				off += n
			}
		}
	})
	l["fs.log_decode_entries_per_s"] = float64(passes*perChunk) / el

	env := sim.NewEnv(1)
	pm := hw.NewPM(env, "probe", hw.DefaultPMConfig(48<<20))
	ctx := fs.NoCostCtx(pm)
	log := fs.NewLogArea(pm, 32<<20, 8<<20)
	for i := 0; i < perChunk; i++ {
		entry.Off = uint64(i) * probeIO
		if _, err := log.Append(ctx, &entry); err != nil {
			panic(fmt.Sprintf("fs probe: append: %v", err))
		}
	}
	var scratch []byte
	el = probe(rec, "fs", "visit_range", func() {
		for pass := 0; pass < passes; pass++ {
			var err error
			scratch, err = log.VisitRange(ctx, scratch, 0, log.Head(), func(*fs.Entry) error { return nil })
			if err != nil {
				panic(fmt.Sprintf("fs probe: visit: %v", err))
			}
		}
	})
	l["fs.visit_range_gbps"] = float64(passes) * float64(log.Head()) / el / 1e9

	// A published 16 MiB file, read 16 KiB at a time.
	const fileSize = 16 << 20
	const reads = 20000
	vol, err := fs.Format(env, pm, 0, 32<<20, 1024)
	if err == nil {
		err = vol.CreateInode(ctx, 20, fs.TypeFile)
	}
	for off := uint64(0); err == nil && off < fileSize; off += probeIO {
		err = vol.PublishWrite(ctx, 20, off, data, nil)
	}
	if err != nil {
		panic(fmt.Sprintf("fs probe: publish: %v", err))
	}
	el = probe(rec, "fs", "vol_read", func() {
		for i := 0; i < reads; i++ {
			off := uint64(i*37%(fileSize/probeIO)) * probeIO
			if n, err := vol.ReadFile(ctx, 20, off, data); err != nil || n != probeIO {
				panic(fmt.Sprintf("fs probe: read %d: %v", n, err))
			}
		}
	})
	l["fs.vol_read_host_ns"] = el * 1e9 / reads

	// The varmail shape: create, two writes (the second shadows the
	// first), and for every other inode an unlink.
	var entries []*fs.Entry
	small := data[:4096]
	for ino := fs.Ino(100); len(entries) < 4096; ino++ {
		entries = append(entries,
			&fs.Entry{Type: fs.OpCreate, Ino: ino, PIno: 1, Name: "f"},
			&fs.Entry{Type: fs.OpWrite, Ino: ino, Data: small},
			&fs.Entry{Type: fs.OpWrite, Ino: ino, Data: small})
		if ino%2 == 0 {
			entries = append(entries, &fs.Entry{Type: fs.OpUnlink, Ino: ino, PIno: 1, Name: "f"})
		}
	}
	const rounds = 40
	el = probe(rec, "fs", "coalesce", func() {
		for i := 0; i < rounds; i++ {
			if kept, _ := fs.Coalesce(entries); len(kept) == len(entries) {
				panic("fs probe: coalesce dropped nothing")
			}
		}
	})
	l["fs.coalesce_entries_per_s"] = float64(rounds*len(entries)) / el
}

func probeCompress(rec *recorder, seed int64, l map[string]float64) {
	// The bytes zipwrite's generator emits, as the pipeline sees them:
	// stamped blocks of the compressible pool.
	g := newGenerator(seed, true)
	src := make([]byte, 1<<20)
	for blk := 0; blk < len(src)/blockSize; blk++ {
		g.fill(src[blk*blockSize:(blk+1)*blockSize], 1, uint64(blk), 1)
	}
	const passes = 4
	enc, dec := compress.NewEncoder(), compress.NewDecoder()
	var packed, out []byte
	el := probe(rec, "compress", "lzw_compress", func() {
		for i := 0; i < passes; i++ {
			packed = enc.CompressInto(packed[:0], src)
		}
	})
	l["compress.lzw_compress_mbps"] = passes * float64(len(src)) / el / 1e6
	el = probe(rec, "compress", "lzw_decompress", func() {
		for i := 0; i < passes; i++ {
			var err error
			if out, err = dec.DecompressInto(out[:0], packed); err != nil || len(out) != len(src) {
				panic(fmt.Sprintf("compress probe: %d bytes: %v", len(out), err))
			}
		}
	})
	l["compress.lzw_decompress_mbps"] = passes * float64(len(src)) / el / 1e6
}

func probePipeline(rec *recorder, l map[string]float64) {
	const items = 100000
	env := sim.NewEnv(1)
	pass := func(*sim.Proc, int) bool { return true }
	pl := pipeline.New(env, "probe", pipeline.DefaultConfig(),
		pipeline.Stage[int]{Name: "a", Work: pass},
		pipeline.Stage[int]{Name: "b", Work: pass},
		pipeline.Stage[int]{Name: "c", Work: pass, InOrder: true})
	env.Go("feeder", func(p *sim.Proc) {
		for i := 0; i < items; i++ {
			pl.Submit(p, i)
		}
		pl.Drain(p)
		env.Stop()
	})
	el := probe(rec, "pipeline", "items", env.Run)
	l["pipeline.items_per_s"] = items / el
	env.Shutdown()
}

func probeCore(rec *recorder, l map[string]float64) {
	const iters = 2000
	loop, err := core.ReplHotLoop()
	if err != nil {
		panic(fmt.Sprintf("core probe: %v", err))
	}
	loop() // warm every pooled buffer
	var m0, m1 runtime.MemStats
	el := probe(rec, "core", "repl_hotloop", func() {
		runtime.ReadMemStats(&m0)
		for i := 0; i < iters; i++ {
			loop()
		}
		runtime.ReadMemStats(&m1)
	})
	l["core.repl_hotloop_ns"] = el * 1e9 / iters
	l["core.repl_hotloop_allocs"] = float64(m1.Mallocs-m0.Mallocs) / iters
}

func probeLease(rec *recorder, l map[string]float64) {
	const inodes = 4096
	const rounds = 20
	env := sim.NewEnv(1)
	t := lease.NewTable(env, time.Second)
	el := probe(rec, "lease", "acquire", func() {
		for r := 0; r < rounds; r++ {
			for ino := fs.Ino(1); ino <= inodes; ino++ {
				holder := "a"
				if ino%2 == 0 {
					holder = "b"
				}
				if ok, _ := t.Acquire(ino, holder, lease.Write); !ok {
					panic("lease probe: uncontended acquire refused")
				}
				t.Release(ino, holder)
			}
		}
	})
	l["lease.acquire_host_ns"] = el * 1e9 / (rounds * inodes)
}
