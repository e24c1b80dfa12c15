package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/sim"
)

// RepStats are simulated-time replication-chain numbers for one wire
// protocol configuration: a fixed single-client stream pushed down the
// 3-replica chain, then two trains of write+fsync round trips.
type RepStats struct {
	// ChunksPerSec is replication throughput: chunks fully replicated and
	// acknowledged per simulated second of the streaming phase.
	ChunksPerSec float64 `json:"chunks_per_sec"`
	// WireMsgsPerChunk is total chain traffic — data messages sent by every
	// hop plus acknowledgment messages received — divided by chunks
	// replicated. The seed protocol pays 4 per chunk (two data hops, two
	// acks); batching amortizes all four.
	WireMsgsPerChunk float64 `json:"wire_msgs_per_chunk"`
	// FsyncP50Micros / FsyncP99Micros are write+fsync round-trip latency
	// percentiles in simulated microseconds (one chunk per sync).
	FsyncP50Micros float64 `json:"fsync_p50_us"`
	FsyncP99Micros float64 `json:"fsync_p99_us"`
	// SyncPathFsyncP50Micros / SyncPathFsyncP99Micros are the same for a
	// quarter-chunk write, where the fsync itself forms the chunk.
	SyncPathFsyncP50Micros float64 `json:"sync_path_fsync_p50_us"`
	SyncPathFsyncP99Micros float64 `json:"sync_path_fsync_p99_us"`
	// LargeFsyncP50Micros is the fsync behind 64 writes of 10 KiB on an idle
	// cluster of the default layout: a range of several dfs.FsyncPiece.
	LargeFsyncP50Micros float64 `json:"large_fsync_p50_us"`
	// FanInFsyncOpsPerSec is 2 and 4 clients of one primary, each doing 4 KiB
	// write+fsync rounds on its own file: the sum of their fsyncs per second.
	FanInFsyncOpsPerSec [2]float64 `json:"fanin_fsync_ops_per_s"`
}

// RepBenchReport is the BENCH_replication.json schema. The baseline column
// is seedRepStats, recorded rather than re-measured. Improvement factors are
// all oriented so that bigger is better.
type RepBenchReport struct {
	Baseline RepStats `json:"baseline"`
	Current  RepStats `json:"current"`
	// ChunksPerSecSpeedup = current / baseline throughput.
	ChunksPerSecSpeedup float64 `json:"chunks_per_sec_speedup"`
	// WireMsgReduction = baseline / current messages per chunk.
	WireMsgReduction float64 `json:"wire_msg_reduction"`
	// FsyncP99Speedup = baseline / current tail latency.
	FsyncP99Speedup float64 `json:"fsync_p99_speedup"`
	// PooledAllocsPerOp is measured wall-clock over core.ReplHotLoop —
	// the //linefs:hotpath-annotated pooled helpers — and must be 0.
	PooledAllocsPerOp float64 `json:"pooled_allocs_per_op"`
	MeasuredAt        string  `json:"measured_at"`
}

const (
	// repChunkSize keeps chunks small so per-message overhead (RPC
	// dispatch, switch latency, header bytes) dominates wire time — the
	// regime doorbell batching exists for, and the regime a metadata-heavy
	// fsync workload actually produces.
	repChunkSize = 16 << 10
	// repStreamChunks is the streaming-phase backlog length.
	repStreamChunks = 192
	// repFsyncOps is the latency-phase sample count.
	repFsyncOps = 64
)

// seedRepStats is the seed protocol's column — one doorbell, one data
// message and one ack round trip per chunk — as last measured on the binary
// that still carried that protocol. The numbers are simulated time under a
// fixed workload and cost model, hence exact and machine-independent:
// re-measuring them could only reproduce them, so the per-chunk wire path is
// not kept alive to do so. They change only if the cost model is
// recalibrated, and then the ratios below lose their meaning anyway.
var seedRepStats = RepStats{
	ChunksPerSec:     16479.156184807558,
	WireMsgsPerChunk: 4,
	FsyncP50Micros:   154.975,
	FsyncP99Micros:   154.975,
	// Not the seed's: this row was added at PR 19 and its baseline is commit
	// 367fb25, the last whose fsync ran fetch, validate and local
	// publication back to back before the chunk went on the wire.
	SyncPathFsyncP50Micros: 161.439,
	SyncPathFsyncP99Micros: 161.439,
	// Added at PR 22; its baseline is commit a05bf2f, the last whose fsync
	// sent its whole range down the chain as one chunk.
	LargeFsyncP50Micros: 962.929,
	// Added at PR 24; its baseline is commit 805d25a, the last whose
	// low-latency class was one poller for every connection.
	FanInFsyncOpsPerSec: [2]float64{10534.459727062356, 11120.111713189719},
}

// repClient runs body as each of the clients of a fresh 3-node cluster of the
// default layout at chunkSize, on a file it has just created. All numbers
// are simulated time, so they are deterministic across machines.
func repClient(o Options, clients, chunkSize int, mutate func(*core.Config), body func(p *sim.Proc, cl *core.Cluster, c *dfs.Client, fd int) error) error {
	l := o.layout(clients)
	l.ChunkSize = chunkSize
	sys, err := newLineFS(o, l, mutate)
	if err != nil {
		return err
	}
	defer sys.Env.Shutdown()
	return runClients(sys, "repbench/client", clients, 10*time.Minute, func(p *sim.Proc, c *dfs.Client, i int) error {
		fd, err := c.Create(p, fmt.Sprintf("/repbench%d", i))
		if err != nil {
			return err
		}
		return body(p, sys.LineFS, c, fd)
	})
}

// fsyncTrain is a train of ops write+fsync round trips, each fsync behind
// writes appends of payload at *off, timing the fsync: its p50 and p99 in
// simulated microseconds.
func fsyncTrain(p *sim.Proc, c *dfs.Client, fd int, off *uint64, payload []byte, writes, ops int) (p50, p99 float64, err error) {
	lat := make([]time.Duration, 0, ops)
	for i := 0; i < ops; i++ {
		for w := 0; w < writes; w++ {
			if _, err := c.WriteAt(p, fd, *off, payload); err != nil {
				return 0, 0, err
			}
			*off += uint64(len(payload))
		}
		s0 := p.Now()
		if err := c.Fsync(p, fd); err != nil {
			return 0, 0, err
		}
		lat = append(lat, time.Duration(p.Now()-s0))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[len(lat)/2]) / 1e3, float64(lat[len(lat)*99/100]) / 1e3, nil
}

// measureRepChain runs the fixed workload: the streaming phase and the two
// small trains on one cluster, the fan-in trains and the large-fsync train
// each on an idle one.
func measureRepChain(o Options) (st RepStats, err error) {
	// Incompressible payload: compression never pays off, so the chain
	// moves raw frames and the wire protocol itself is what is measured.
	payload := make([]byte, repChunkSize)
	rand.New(rand.NewSource(11)).Read(payload)

	// The full fast path: wire batching plus submission-side doorbell
	// coalescing, so one dispatch forms several chunks and the sender sees
	// a real backlog to coalesce.
	err = repClient(o, 1, repChunkSize, func(c *core.Config) { c.NotifyChunks = 8 }, func(p *sim.Proc, cl *core.Cluster, c *dfs.Client, fd int) error {
		// Streaming phase: one chunk-sized write per chunk paces one
		// chunk-ready notification each, so the sender sees a genuine
		// multi-chunk backlog; the closing fsync waits until every chunk
		// is replicated and acknowledged.
		start := p.Now()
		for i := 0; i < repStreamChunks; i++ {
			if _, err := c.WriteAt(p, fd, uint64(i*repChunkSize), payload); err != nil {
				return err
			}
		}
		if err := c.Fsync(p, fd); err != nil {
			return err
		}
		elapsed := time.Duration(p.Now() - start)
		chunks := cl.NICs[0].RepChunksSent
		var msgs int64
		for _, n := range cl.NICs {
			msgs += n.RepMsgs + n.AckMsgs
		}
		if chunks == 0 || elapsed <= 0 {
			return fmt.Errorf("repbench: streaming phase replicated nothing (chunks=%d elapsed=%v)", chunks, elapsed)
		}
		st.ChunksPerSec = float64(chunks) / elapsed.Seconds()
		st.WireMsgsPerChunk = float64(msgs) / float64(chunks)

		// Latency phases: trains of write+fsync round trips. A chunk-sized
		// write crosses a chunk boundary, so the fsync rings the deferred
		// doorbell and only waits for that chunk; a quarter-chunk write
		// leaves the chunk far from full, so the fsync itself forms the
		// chunk and carries it down the sync path.
		off := uint64(repStreamChunks * repChunkSize)
		if st.FsyncP50Micros, st.FsyncP99Micros, err = fsyncTrain(p, c, fd, &off, payload, 1, repFsyncOps); err != nil {
			return err
		}
		if st.SyncPathFsyncP50Micros, st.SyncPathFsyncP99Micros, err = fsyncTrain(p, c, fd, &off, payload[:repChunkSize/4], 1, repFsyncOps); err != nil {
			return err
		}
		for _, n := range cl.NICs {
			if n.StaleAcks != 0 {
				return fmt.Errorf("repbench: %d stale acks on a healthy run", n.StaleAcks)
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	for i, clients := range [...]int{2, 4} {
		if err := repClient(o, clients, o.layout(1).ChunkSize, nil, func(p *sim.Proc, _ *core.Cluster, c *dfs.Client, fd int) (err error) {
			off, start := uint64(0), p.Now()
			_, _, err = fsyncTrain(p, c, fd, &off, payload[:4<<10], 1, repFsyncOps)
			st.FanInFsyncOpsPerSec[i] += repFsyncOps / time.Duration(p.Now()-start).Seconds()
			return err
		}); err != nil {
			return st, err
		}
	}
	return st, repClient(o, 1, o.layout(1).ChunkSize, nil, func(p *sim.Proc, _ *core.Cluster, c *dfs.Client, fd int) (err error) {
		var off uint64
		st.LargeFsyncP50Micros, _, err = fsyncTrain(p, c, fd, &off, payload[:10<<10], 64, 16)
		return err
	})
}

// MeasureRepBench measures the chain protocol against the recorded seed
// column, then the pooled hot path's allocation rate under a wall-clock
// window of minTime.
func MeasureRepBench(minTime time.Duration) (RepBenchReport, error) {
	var rep RepBenchReport
	base := seedRepStats
	cur, err := measureRepChain(DefaultOptions())
	if err != nil {
		return rep, err
	}
	hot, err := core.ReplHotLoop()
	if err != nil {
		return rep, err
	}
	_, allocs := rate(minTime, hot)
	// As in the databench: tolerate stray background runtime allocations
	// below one per op, never a per-op allocation.
	if allocs >= 1 {
		return rep, fmt.Errorf("repbench: pooled hot path allocates (%.1f allocs/op, want 0)", allocs)
	}
	if cur.SyncPathFsyncP50Micros <= 0 || cur.SyncPathFsyncP50Micros >= base.SyncPathFsyncP50Micros {
		return rep, fmt.Errorf("repbench: sync-path fsync p50 %.3f us, want below the %.3f us recorded when it still waited for local publication",
			cur.SyncPathFsyncP50Micros, base.SyncPathFsyncP50Micros)
	}
	if cur.LargeFsyncP50Micros <= 0 || cur.LargeFsyncP50Micros > 0.75*base.LargeFsyncP50Micros {
		return rep, fmt.Errorf("repbench: large fsync p50 %.3f us, want a quarter below the %.3f us recorded when its range went as one chunk",
			cur.LargeFsyncP50Micros, base.LargeFsyncP50Micros)
	}
	rep = RepBenchReport{
		Baseline:            base,
		Current:             cur,
		ChunksPerSecSpeedup: cur.ChunksPerSec / base.ChunksPerSec,
		WireMsgReduction:    base.WireMsgsPerChunk / cur.WireMsgsPerChunk,
		FsyncP99Speedup:     base.FsyncP99Micros / cur.FsyncP99Micros,
		PooledAllocsPerOp:   allocs,
		MeasuredAt:          time.Now().UTC().Format(time.RFC3339),
	}
	return rep, nil
}

// WriteRepBench measures the replication chain and writes the report to
// path.
func WriteRepBench(path string, minTime time.Duration) (RepBenchReport, error) {
	rep, err := MeasureRepBench(minTime)
	if err != nil {
		return rep, err
	}
	return rep, writeReport(path, rep)
}
