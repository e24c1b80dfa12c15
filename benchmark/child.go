package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// repResult is what one child process reports to the driver: one
// repetition of one workload. Virtual metrics are deterministic for a seed;
// Host metrics are this process's own time and memory.
type repResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	Notes     []string           `json:"notes,omitempty"`
	Virtual   map[string]float64 `json:"virtual"`
	Host      map[string]float64 `json:"host"`
	// Layer holds the per-layer metrics; only a traced rep fills it.
	Layer        map[string]float64 `json:"layer,omitempty"`
	FsyncSamples int                `json:"fsync_samples"`
	Events       uint64             `json:"events,omitempty"`
	Digest       string             `json:"digest,omitempty"`
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// runRep runs one repetition in this process. start is when the process
// started: set-up time is counted from there. The rep is returned too: it
// holds the span recorder and the simulation environment.
func runRep(w *workload, sc scale, seed int64, traced bool, start time.Time, corruptFrom int64) (*repResult, *rep, error) {
	ru0 := rusage()
	r := &rep{w: w, sc: sc, seed: seed, gen: newGenerator(seed, w.compress), corruptFrom: corruptFrom}
	if traced {
		r.rec = newRecorder(start, 1<<16)
	}
	var err error
	if r.sys, err = newSystem(seed, sc, w.assise, w.compress, w.clients, traced); err != nil {
		return nil, nil, err
	}
	res := &repResult{Workload: w.name, Seed: seed, Traced: traced,
		Virtual: map[string]float64{}, Host: map[string]float64{}}

	ok := r.setup()
	res.Host["setup_s"] = time.Since(start).Seconds()

	var c0, c1 counters
	var ms0, ms1 runtime.MemStats
	var ru1, ru2 syscall.Rusage
	var wall time.Duration
	if ok {
		for _, c := range r.clients {
			c.resetStats()
		}
		r.writes = 0
		c0 = r.sys.snapshot()
		runtime.ReadMemStats(&ms0)
		ru1 = rusage()
		t0 := time.Now()
		ok = r.clientPhase("measure", measureLimit, r.w.measure)
		wall = time.Since(t0)
		ru2 = rusage()
		runtime.ReadMemStats(&ms1)
		c1 = r.sys.snapshot()
	}
	if ok {
		ok = r.drain("drain")
	}
	if ok {
		r.verify()
	}

	res.Attempted, res.Failed = r.verifyAttempted, r.verifyFailed
	var ops, written, read int64
	var fsyncLat []int64
	lat := make([][]int64, nOpKinds)
	hostLat := make([][]int64, nOpKinds)
	for _, c := range r.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		ops += c.ops
		written += c.written
		read += c.read
		fsyncLat = append(fsyncLat, c.fsyncLat...)
		for k := range lat {
			lat[k] = append(lat[k], c.simLat[k]...)
			hostLat[k] = append(hostLat[k], c.hostLat[k]...)
		}
	}
	res.Notes = r.notes
	if !ok {
		if res.Failed == 0 {
			res.Failed = 1 // a phase that did not finish is a failure even with nothing in flight
		}
		return res, r, nil
	}

	elapsed := time.Duration(c1.now - c0.now).Seconds()
	var hostBusy time.Duration
	for i := range c1.hostBusy {
		hostBusy += c1.hostBusy[i] - c0.hostBusy[i]
	}
	v := res.Virtual
	v["sim_write_gbps"] = float64(written) / elapsed / 1e9
	v["sim_ops_per_s"] = float64(ops) / elapsed
	v["sim_fsync_p50_us"] = us(percentile(fsyncLat, 50))
	v["sim_fsync_tail_us"] = us(percentile(fsyncLat, tailPercentile(len(fsyncLat))))
	v["sim_host_cpu_ms_per_gb"] = float64(hostBusy) / 1e6 / (float64(written+read) / 1e9)
	v["wire_bytes_per_user_byte"] = float64(c1.wire-c0.wire) / float64(written)
	res.FsyncSamples = len(fsyncLat)

	h := res.Host
	h["wall_s"] = wall.Seconds()
	ruEnd := rusage()
	h["peak_rss_mb"] = float64(ruEnd.Maxrss) / 1024 // ru_maxrss is in KiB on Linux

	if !traced {
		return res, r, nil
	}
	res.Events = c1.events - c0.events
	res.Digest = fmt.Sprintf("%016x", uint64(r.sys.env.TraceDigest()))
	l := map[string]float64{}
	res.Layer = l

	l["sim.events"] = float64(res.Events)
	l["sim.host_ns_per_event"] = float64(wall) / float64(res.Events)

	// Distinct PM bytes written: each node holds the file data once plus,
	// per client, as much of the log ring as was used.
	touched := float64(0)
	for _, f := range r.files {
		touched += float64(len(f.ver)) * blockSize
	}
	for _, c := range r.clients {
		logged := float64(c.c.Log().Head())
		if ring := float64(sc.logSize); logged > ring {
			logged = ring
		}
		touched += logged
	}
	l["hw.pm_resident_per_touched"] = float64(ruEnd.Maxrss-ru0.Maxrss) * 1024 / (touched * nodes)
	l["hw.pm_link_bytes_per_user_byte"] = float64(c1.pmLink-c0.pmLink) / float64(written)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	l["hw.host_cpu_busy_ms_primary"] = ms(c1.hostBusy[0] - c0.hostBusy[0])
	l["hw.host_cpu_busy_ms_replicas"] = ms(hostBusy - (c1.hostBusy[0] - c0.hostBusy[0]))
	nic0 := c1.nicBusy[0] - c0.nicBusy[0]
	l["hw.nic_cpu_busy_ms_primary"] = ms(nic0)
	l["hw.nic_cpu_busy_ms_replicas"] = ms(c1.nicBusy[1] - c0.nicBusy[1] + c1.nicBusy[2] - c0.nicBusy[2])
	l["hw.nic_cpu_util_pct"] = 100 * nic0.Seconds() / (elapsed * float64(r.sys.spec.NICCores))
	l["hw.pcie_bytes"] = float64(c1.pcie - c0.pcie)
	l["hw.fetch_bytes"] = float64(c1.fetch - c0.fetch)

	l["rdma.wire_bytes"] = float64(c1.wire - c0.wire)
	l["rdma.primary_tx_util_pct"] = 100 * float64(c1.tx0-c0.tx0) / (r.sys.spec.NetBW * elapsed)
	l["rdma.rpc_timeouts"] = float64(c1.rpcTimeouts - c0.rpcTimeouts)
	l["rdma.rpc_retries"] = float64(c1.rpcRetries - c0.rpcRetries)

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	l["compress.wire_ratio"] = ratio(c1.repWire-c0.repWire, c1.rep-c0.rep)
	for i, st := range stages {
		l[st.metric] = ratio(int64(c1.stageTotal[i]-c0.stageTotal[i]), c1.stageN[i]-c0.stageN[i]) / 1e3
	}
	chunks := c1.repChunks - c0.repChunks
	l["core.rep_msgs_per_chunk"] = ratio(c1.repMsgs-c0.repMsgs, chunks)
	l["core.ack_msgs_per_chunk"] = ratio(c1.ackMsgs-c0.ackMsgs, chunks)
	l["core.stale_acks"] = float64(c1.staleAcks - c0.staleAcks)
	l["core.pub_bytes_per_user_byte"] = ratio(c1.pub-c0.pub, written)
	l["core.coalesced_bytes"] = float64(c1.coalesced - c0.coalesced)
	l["assise.digested_bytes_per_user_byte"] = ratio(c1.digested-c0.digested, written)

	l["dfs.write_sim_us_p50"] = us(percentile(lat[opWrite], 50))
	l["dfs.write_host_ns_p50"] = float64(percentile(hostLat[opWrite], 50))
	l["dfs.fsync_sim_us_p50"] = us(percentile(lat[opFsync], 50))
	l["dfs.fsync_sim_us_p99"] = us(percentile(lat[opFsync], 99))
	l["dfs.read_sim_us_p50"] = us(percentile(lat[opRead], 50))
	l["dfs.read_host_ns_p50"] = float64(percentile(hostLat[opRead], 50))
	var readNs int64
	for _, d := range lat[opRead] {
		readNs += d
	}
	l["dfs.read_sim_gbps"] = ratio(read, readNs) // bytes per ns is GB/s
	l["dfs.create_sim_us_p50"] = us(percentile(lat[opCreate], 50))
	l["dfs.open_sim_us_p50"] = us(percentile(lat[opOpen], 50))
	l["dfs.unlink_sim_us_p50"] = us(percentile(lat[opUnlink], 50))
	l["dfs.attach_sim_us"] = us(percentile(lat[opAttach], 50))

	l["os.cpu_user_s"] = tvSeconds(ru2.Utime) - tvSeconds(ru1.Utime)
	l["os.cpu_sys_s"] = tvSeconds(ru2.Stime) - tvSeconds(ru1.Stime)
	l["os.minor_faults"] = float64(ru2.Minflt - ru1.Minflt)
	l["go.mallocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	l["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["go.heap_peak_mb"] = float64(ms1.HeapSys) / (1 << 20)

	// Share of the clients' measured virtual time that lies inside a
	// recorded call or think-time span.
	simSelf := r.rec.simSelfTimes()
	var clientTime, clientSelf int64
	for _, s := range r.rec.spans {
		if s.Parent >= 0 && r.rec.spans[s.Parent].Name == "measure" {
			clientTime += s.SimEnd - s.SimStart
			clientSelf += simSelf[s.ID]
		}
	}
	l["trace.sim_coverage_pct"] = 100 * (1 - ratio(clientSelf, clientTime))
	return res, r, nil
}
