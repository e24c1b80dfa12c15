package bench

import (
	"strconv"
	"testing"

	"linefs/internal/node"
)

// TestAblScalingShape pins what abl-scaling exists to show: with a chunk cut
// into one sub-block per NIC core and the sub-blocks coded side by side,
// compression runs on every core's thread and the pipeline beats one thread
// doing the same sub-blocks back to back by at least 8x (16 NIC cores shared
// with the other stages; 813 vs 39 MB/s when this was written).
func TestAblScalingShape(t *testing.T) {
	t.Parallel()
	res, err := AblScaling(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	num := func(row, col int) float64 {
		v, err := strconv.ParseFloat(res.Rows[row][col], 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	pipeline, sequential := num(0, 1), num(1, 1)
	if pipeline < 8*sequential {
		t.Errorf("pipeline %v MB/s vs sequential %v MB/s: want >= 8x", pipeline, sequential)
	}
	if peak, cores := num(0, 2), node.DefaultSpec().NICCores; peak != float64(cores) {
		t.Errorf("compression peaked at %v threads, want one per NIC core (%d)", peak, cores)
	}
	if peak := num(1, 2); peak != 1 {
		t.Errorf("LineFS-NotParallel compressed on %v threads, want 1", peak)
	}
}
