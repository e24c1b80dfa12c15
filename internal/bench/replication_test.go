package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestRepBenchAcceptance runs the replication-chain bench and pins its
// acceptance shape: the chain must beat the recorded seed per-chunk protocol
// by >= 2x in chunks/sec and >= 4x in wire messages per chunk without
// regressing fsync latency beyond noise, an fsync that forms its own chunk
// must cost less than it did while it still waited for local publication, a
// large fsync at least a quarter less than it did as one chunk, four clients'
// small fsyncs must complete at twice the rate they did behind one
// low-latency poller and at 1.8 times two clients' rate, and a small fsync's
// tail beside a streaming client must be at most half what it was while the
// class waited out bulk link segments. The columns are simulated time, so
// both must reproduce the committed BENCH_replication.json exactly: the
// baseline because it is frozen, the current column because nothing may move
// it unannounced.
func TestRepBenchAcceptance(t *testing.T) {
	t.Parallel()
	rep, err := MeasureRepBench()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksPerSecSpeedup < 2 {
		t.Errorf("chunks/sec speedup = %.2fx, want >= 2x", rep.ChunksPerSecSpeedup)
	}
	if rep.WireMsgReduction < 4 {
		t.Errorf("wire message reduction = %.2fx, want >= 4x", rep.WireMsgReduction)
	}
	if rep.Current.FsyncP99Micros > 1.25*rep.Baseline.FsyncP99Micros {
		t.Errorf("fsync p99 regressed: %.1f us vs baseline %.1f us",
			rep.Current.FsyncP99Micros, rep.Baseline.FsyncP99Micros)
	}
	// MeasureRepBench itself refuses a sync-path p50 that is not below the
	// recorded one (and a large-fsync p50 not a quarter below); the tail must
	// be too.
	if cur, base := rep.Current.SyncPathFsyncP99Micros, rep.Baseline.SyncPathFsyncP99Micros; cur >= base {
		t.Errorf("sync-path fsync p99 = %.3f us, want below the recorded %.3f us", cur, base)
	}
	if cur, base := rep.Current.FanInFsyncOpsPerSec, rep.Baseline.FanInFsyncOpsPerSec; cur[1] < 2*base[1] || cur[1] < 1.8*cur[0] {
		t.Errorf("fan-in fsyncs/sec = %.0f | %.0f at 2 | 4 clients (recorded %.0f | %.0f), want the 4-client rate twice the recorded one and 1.8x the 2-client one",
			cur[0], cur[1], base[0], base[1])
	}
	if cur, base := rep.Current.SyncBesideBulkFsyncP99Micros, rep.Baseline.SyncBesideBulkFsyncP99Micros; cur <= 0 || cur > base/2 {
		t.Errorf("sync beside bulk fsync p99 = %.3f us, want at most half the recorded %.3f us", cur, base)
	}

	b, err := os.ReadFile("../../BENCH_replication.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed RepBenchReport
	if err := json.Unmarshal(b, &committed); err != nil {
		t.Fatalf("BENCH_replication.json: %v", err)
	}
	if rep.Baseline != committed.Baseline {
		t.Errorf("frozen baseline differs from BENCH_replication.json:\n frozen    %+v\n committed %+v",
			rep.Baseline, committed.Baseline)
	}
	if rep.Current != committed.Current {
		t.Errorf("current column differs from BENCH_replication.json:\n measured  %+v\n committed %+v",
			rep.Current, committed.Current)
	}
}
