package bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
)

// TestDataBenchAcceptance pins what -databench reports: the baseline column
// is the recorded seed column, byte for byte the one committed in
// BENCH_dataplane.json; a 25 ms run completes, which it does only if all
// five loops ran at 0 allocs/op; and the aggregate is the geometric mean of
// the four LZW and log-codec ratios, the PM row left out.
//
// Not parallel: the allocation gate reads process-wide MemStats.
func TestDataBenchAcceptance(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_dataplane.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed DataBenchReport
	if err := json.Unmarshal(b, &committed); err != nil {
		t.Fatalf("BENCH_dataplane.json: %v", err)
	}
	if seedDataStats != committed.Baseline {
		t.Errorf("frozen baseline differs from BENCH_dataplane.json:\n frozen    %+v\n committed %+v",
			seedDataStats, committed.Baseline)
	}

	if fs.BorrowSanitizerEnabled() || compress.BorrowSanitizerEnabled() {
		t.Skip("the borrow sanitizer forces a fresh scratch per call; the 0 allocs/op gate cannot hold")
	}
	rep, err := MeasureDataBench(25 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != seedDataStats {
		t.Errorf("report baseline %+v is not the frozen column", rep.Baseline)
	}
	cur, base := rep.Current, rep.Baseline
	for name, v := range map[string]float64{
		"lzw compress": cur.LZWCompressMBps, "lzw decompress": cur.LZWDecompressMBps,
		"log encode": cur.LogEncodePerSec, "log decode": cur.LogDecodePerSec, "pm write": cur.PMWriteGBps,
	} {
		if !(v > 0) {
			t.Errorf("%s: measured %v", name, v)
		}
	}
	want := math.Pow(cur.LZWCompressMBps/base.LZWCompressMBps*(cur.LZWDecompressMBps/base.LZWDecompressMBps)*
		(cur.LogEncodePerSec/base.LogEncodePerSec)*(cur.LogDecodePerSec/base.LogDecodePerSec), 0.25)
	if math.Abs(rep.SpeedupAggregate-want) > 1e-9*want {
		t.Errorf("aggregate %v, want the geomean of the four LZW/log ratios %v", rep.SpeedupAggregate, want)
	}
}
