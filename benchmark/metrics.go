package main

import (
	"math"
	"sort"
)

// Two clocks, always named. A metric on the virtual clock is an output of
// the modelled testbed: it is deterministic and must repeat bit for bit for
// a seed. Everything else is host time or memory of the simulator process
// in this sandbox, and is noisy.
const (
	virtualClock = "virtual"
	hostClock    = "host"
)

// metricDef describes one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may get worse before a
// change counts as a regression (per-layer metrics have none).
type metricDef struct {
	name   string
	unit   string
	higher bool // true: higher is better
	bound  float64
	// floor is an absolute change below which -compare calls a host metric
	// unchanged whatever its share (a 30 ms set-up moves by 25 % on noise).
	floor float64
	clock string
}

// endToEnd are the metrics a user of the system would see; every workload
// reports all of them. BENCHMARK.json lists the same names, units,
// directions and bounds (a test keeps the two in step).
var endToEnd = []metricDef{
	// Host-clock bounds are wide because this sandbox's speed drifts by
	// several per cent over minutes; virtual-clock bounds only have to
	// cover the spread across seeds (identical for one seed).
	{name: "setup_s", unit: "s", bound: 0.25, floor: 0.2, clock: hostClock},
	{name: "wall_s", unit: "s", bound: 0.25, clock: hostClock},
	{name: "peak_rss_mb", unit: "MB", bound: 0.05, clock: hostClock},
	{name: "sim_write_gbps", unit: "GB/s", higher: true, bound: 0.03, clock: virtualClock},
	{name: "sim_ops_per_s", unit: "1/s", higher: true, bound: 0.03, clock: virtualClock},
	{name: "sim_fsync_p50_us", unit: "us", bound: 0.10, clock: virtualClock},
	{name: "sim_fsync_tail_us", unit: "us", bound: 0.10, clock: virtualClock},
	{name: "sim_host_cpu_ms_per_gb", unit: "ms/GB", bound: 0.08, clock: virtualClock},
	{name: "wire_bytes_per_user_byte", unit: "ratio", bound: 0.05, clock: virtualClock},
}

// perLayer are metrics of single layers (a layer is a package under
// internal/, or the OS / Go runtime underneath them). "run" metrics are
// deltas of exported counters or benchmark-side spans over the measured
// phase of the traced rep; "probe" metrics time a fixed loop over the
// layer's exported API on the host. README.md says, row by row, which
// end-to-end metric each one should move and on which workload.
var perLayer = []metricDef{
	{name: "sim.events", unit: "count", clock: virtualClock},
	{name: "sim.host_ns_per_event", unit: "ns", clock: hostClock},
	{name: "sim.timer_events_per_s", unit: "1/s", higher: true, clock: hostClock},
	{name: "sim.handoff_events_per_s", unit: "1/s", higher: true, clock: hostClock},
	{name: "sim.resource_grants_per_s", unit: "1/s", higher: true, clock: hostClock},
	{name: "sim.queue_ops_per_s", unit: "1/s", higher: true, clock: hostClock},

	{name: "hw.pm_write_gbps", unit: "GB/s", higher: true, clock: hostClock},
	{name: "hw.pm_read_gbps", unit: "GB/s", higher: true, clock: hostClock},
	{name: "hw.pm_first_touch_gbps", unit: "GB/s", higher: true, clock: hostClock},
	{name: "hw.pm_resident_per_touched", unit: "ratio", clock: hostClock},
	{name: "hw.pm_link_bytes_per_user_byte", unit: "ratio", clock: virtualClock},
	{name: "hw.host_cpu_busy_ms_primary", unit: "ms", clock: virtualClock},
	{name: "hw.host_cpu_busy_ms_replicas", unit: "ms", clock: virtualClock},
	{name: "hw.nic_cpu_busy_ms_primary", unit: "ms", clock: virtualClock},
	{name: "hw.nic_cpu_busy_ms_replicas", unit: "ms", clock: virtualClock},
	{name: "hw.nic_cpu_util_pct", unit: "%", clock: virtualClock},
	{name: "hw.pcie_bytes", unit: "bytes", clock: virtualClock},
	{name: "hw.fetch_bytes", unit: "bytes", clock: virtualClock},

	{name: "rdma.wire_bytes", unit: "bytes", clock: virtualClock},
	{name: "rdma.primary_tx_util_pct", unit: "%", clock: virtualClock},
	{name: "rdma.call_sim_us", unit: "us", clock: virtualClock},
	{name: "rdma.call_host_ns", unit: "ns", clock: hostClock},
	{name: "rdma.rpc_timeouts", unit: "count", clock: virtualClock},
	{name: "rdma.rpc_retries", unit: "count", clock: virtualClock},

	{name: "fs.log_encode_entries_per_s", unit: "1/s", higher: true, clock: hostClock},
	{name: "fs.log_decode_entries_per_s", unit: "1/s", higher: true, clock: hostClock},
	{name: "fs.visit_range_gbps", unit: "GB/s", higher: true, clock: hostClock},
	{name: "fs.vol_read_host_ns", unit: "ns", clock: hostClock},
	{name: "fs.coalesce_entries_per_s", unit: "1/s", higher: true, clock: hostClock},

	{name: "compress.lzw_compress_mbps", unit: "MB/s", higher: true, clock: hostClock},
	{name: "compress.lzw_decompress_mbps", unit: "MB/s", higher: true, clock: hostClock},
	{name: "compress.wire_ratio", unit: "ratio", clock: virtualClock},

	{name: "pipeline.items_per_s", unit: "1/s", higher: true, clock: hostClock},

	{name: "core.stage_fetch_us", unit: "us", clock: virtualClock},
	{name: "core.stage_validate_us", unit: "us", clock: virtualClock},
	{name: "core.stage_publish_us", unit: "us", clock: virtualClock},
	{name: "core.stage_transfer_us", unit: "us", clock: virtualClock},
	{name: "core.stage_ack_us", unit: "us", clock: virtualClock},
	{name: "core.wait_pub_us", unit: "us", clock: virtualClock},
	{name: "core.wait_rep_us", unit: "us", clock: virtualClock},
	{name: "core.rep_msgs_per_chunk", unit: "ratio", clock: virtualClock},
	{name: "core.ack_msgs_per_chunk", unit: "ratio", clock: virtualClock},
	{name: "core.stale_acks", unit: "count", clock: virtualClock},
	{name: "core.pub_bytes_per_user_byte", unit: "ratio", clock: virtualClock},
	{name: "core.coalesced_bytes", unit: "bytes", clock: virtualClock},
	{name: "core.repl_hotloop_ns", unit: "ns", clock: hostClock},
	{name: "core.repl_hotloop_allocs", unit: "count", clock: hostClock},

	{name: "dfs.write_sim_us_p50", unit: "us", clock: virtualClock},
	{name: "dfs.write_host_ns_p50", unit: "ns", clock: hostClock},
	{name: "dfs.fsync_sim_us_p50", unit: "us", clock: virtualClock},
	{name: "dfs.fsync_sim_us_p99", unit: "us", clock: virtualClock},
	{name: "dfs.read_sim_us_p50", unit: "us", clock: virtualClock},
	{name: "dfs.read_host_ns_p50", unit: "ns", clock: hostClock},
	{name: "dfs.read_sim_gbps", unit: "GB/s", higher: true, clock: virtualClock},
	{name: "dfs.create_sim_us_p50", unit: "us", clock: virtualClock},
	{name: "dfs.open_sim_us_p50", unit: "us", clock: virtualClock},
	{name: "dfs.unlink_sim_us_p50", unit: "us", clock: virtualClock},
	{name: "dfs.attach_sim_us", unit: "us", clock: virtualClock},

	{name: "lease.acquire_host_ns", unit: "ns", clock: hostClock},

	{name: "assise.digested_bytes_per_user_byte", unit: "ratio", clock: virtualClock},

	{name: "os.cpu_user_s", unit: "s", clock: hostClock},
	{name: "os.cpu_sys_s", unit: "s", clock: hostClock},
	{name: "os.minor_faults", unit: "count", clock: hostClock},

	{name: "go.mallocs_per_op", unit: "count", clock: hostClock},
	{name: "go.gc_cycles", unit: "count", clock: hostClock},
	{name: "go.heap_peak_mb", unit: "MB", clock: hostClock},

	{name: "trace.overhead_pct", unit: "%", clock: hostClock},
	{name: "trace.sim_coverage_pct", unit: "%", higher: true, clock: virtualClock},
}

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(values, n=4) (the exclusive method), which is what
// the acceptance rule for this benchmark is written in.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// percentile is the nearest-rank percentile of unsorted samples (0 with
// none), the same rule internal/stats.Latency uses.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile picks the highest of p99, p90 and p50 that still has at
// least ten samples beyond it, so that a tail is only reported where the
// sample count supports one (two fsyncs per run do not make a p99).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
