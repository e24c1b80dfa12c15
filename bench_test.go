package linefs

import (
	"strconv"
	"testing"

	"linefs/internal/bench"
)

// Each benchmark regenerates one of the paper's tables or figures at quick
// scale and reports headline metrics via b.ReportMetric. Run the full set
// with:
//
//	go test -bench=. -benchtime=1x
//
// or print the full tables with cmd/linefs-bench.

// runExperiment executes the named experiment once per benchmark iteration,
// or once for a test.
func runExperiment(tb testing.TB, name string) *bench.Result {
	tb.Helper()
	e, ok := bench.Find(name)
	if !ok {
		tb.Fatalf("unknown experiment %q", name)
	}
	opts := bench.DefaultOptions()
	n := 1
	if b, ok := tb.(*testing.B); ok {
		n = b.N
	}
	var res *bench.Result
	for i := 0; i < n; i++ {
		var err error
		res, err = e.Run(opts)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return res
}

// cell parses a numeric table cell (strips %, GB/s already numeric).
func cell(tb testing.TB, res *bench.Result, row, col int) float64 {
	tb.Helper()
	if row >= len(res.Rows) || col >= len(res.Rows[row]) {
		tb.Fatalf("no cell (%d,%d) in %s", row, col, res.Name)
	}
	s := res.Rows[row][col]
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == 's') {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		tb.Fatalf("cell %q not numeric: %v", res.Rows[row][col], err)
	}
	return v
}

func BenchmarkTable1(b *testing.B) {
	res := runExperiment(b, "table1")
	// Row 3: 8 procs on 25GbE.
	b.ReportMetric(cell(b, res, 3, 4), "assise-cpu-%")
	b.ReportMetric(cell(b, res, 3, 5), "ceph-cpu-%")
}

func BenchmarkTable2(b *testing.B) {
	res := runExperiment(b, "table2")
	b.ReportMetric(cell(b, res, 0, 1), "assise-seq-MB/s")
	b.ReportMetric(cell(b, res, 0, 2), "linefs-seq-MB/s")
}

func BenchmarkTable3(b *testing.B) {
	res := runExperiment(b, "table3")
	b.ReportMetric(cell(b, res, 0, 4), "assise-busy-avg-us")
	b.ReportMetric(cell(b, res, 2, 4), "linefs-busy-avg-us")
	b.ReportMetric(cell(b, res, 0, 5), "assise-busy-p99-us")
	b.ReportMetric(cell(b, res, 2, 5), "linefs-busy-p99-us")
}

// TestTable3Shape asserts the contrast Table 3 exists for: LineFS's
// write+fsync latency sits near the paper's 149 us and stays there when the
// replicas' hosts are busy (the paper's 149/187/205 both ways), because
// nothing an fsync waits for runs on a host core, while Assise's average
// triples and its tail grows tenfold.
func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table3 experiment: 7 s, far longer under the race detector")
	}
	res := runExperiment(t, "table3")
	const assise, linefs = 0, 2                           // rows
	const idleAvg, idleP99, busyAvg, busyP99 = 1, 2, 4, 5 // columns
	at := func(row, col int) float64 { return cell(t, res, row, col) }
	if v := at(linefs, idleAvg); v < 140 || v > 165 {
		t.Errorf("LineFS idle avg = %v us, want 140-165 (paper 149)", v)
	}
	if busy, idle := at(linefs, busyAvg), at(linefs, idleAvg); busy > 1.15*idle {
		t.Errorf("LineFS busy avg = %v us, idle %v: want at most 1.15x", busy, idle)
	}
	if busy, idle := at(linefs, busyP99), at(linefs, idleP99); busy > 1.15*idle {
		t.Errorf("LineFS busy p99 = %v us, idle %v: want at most 1.15x", busy, idle)
	}
	if busy, idle := at(assise, busyAvg), at(assise, idleAvg); busy < 3*idle {
		t.Errorf("Assise busy avg = %v us, idle %v: want at least 3x", busy, idle)
	}
	if busy, idle := at(assise, busyP99), at(assise, idleP99); busy < 10*idle {
		t.Errorf("Assise busy p99 = %v us, idle %v: want at least 10x", busy, idle)
	}
}

// TestFig8aShape asserts who wins each LevelDB workload beside busy replicas
// (Figure 8a): LineFS ahead of Assise on every write workload — on fillsync,
// the one that waits for the chain, clear of the co-runner's 100 us
// scheduling grid — and level with it on reads, which never leave the host.
func TestFig8aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig8a experiment: 0.5 s, 6 s under the race detector")
	}
	res := runExperiment(t, "fig8a")
	const fillseq, fillrandom, fillsync, readseq, readhot = 0, 1, 2, 3, 5 // rows
	const assise, linefs = 1, 2                                           // columns
	at := func(row, col int) float64 { return cell(t, res, row, col) }
	if l, a := at(fillsync, linefs), at(fillsync, assise); l >= a || l >= 200 {
		t.Errorf("fillsync: LineFS %v us, Assise %v: want LineFS ahead and under 200 (paper: 27%% better)", l, a)
	}
	for _, row := range []int{fillseq, fillrandom} {
		if l, a := at(row, linefs), at(row, assise); l > a {
			t.Errorf("%s: LineFS %v us, Assise %v: want LineFS no slower", res.Rows[row][0], l, a)
		}
	}
	for row := readseq; row <= readhot; row++ {
		if l, a := at(row, linefs), at(row, assise); l-a > 1 || a-l > 1 {
			t.Errorf("%s: LineFS %v us, Assise %v: want them within 1 us", res.Rows[row][0], l, a)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	res := runExperiment(b, "fig4")
	// Idle rows: Assise first, LineFS last; column 2 is 1 client, 5 is 8.
	b.ReportMetric(cell(b, res, 0, 2), "assise-idle-1c-GB/s")
	b.ReportMetric(cell(b, res, 4, 2), "linefs-idle-1c-GB/s")
	b.ReportMetric(cell(b, res, 4, 5), "linefs-idle-8c-GB/s")
	b.ReportMetric(cell(b, res, 9, 5), "linefs-busy-8c-GB/s")
}

func BenchmarkFig5(b *testing.B) {
	res := runExperiment(b, "fig5")
	b.ReportMetric(cell(b, res, 0, 1), "fetch-us")
	b.ReportMetric(cell(b, res, 1, 1), "validate-us")
	b.ReportMetric(cell(b, res, 2, 1), "publish-us")
	b.ReportMetric(cell(b, res, 3, 1), "transfer-us")
}

func BenchmarkFig6(b *testing.B) {
	res := runExperiment(b, "fig6")
	b.ReportMetric(cell(b, res, 0, 1), "sc-solo-s")
	b.ReportMetric(cell(b, res, 1, 1), "sc-assise-primary-s")
	b.ReportMetric(cell(b, res, 3, 1), "sc-linefs-primary-s")
	b.ReportMetric(cell(b, res, 3, 3), "linefs-MB/s")
}

func BenchmarkFig7(b *testing.B) {
	res := runExperiment(b, "fig7")
	b.ReportMetric(cell(b, res, 0, 1), "sc-memcpy-s")
	b.ReportMetric(cell(b, res, 3, 1), "sc-dma-intr-batch-s")
	b.ReportMetric(cell(b, res, 4, 1), "sc-nocopy-s")
	b.ReportMetric(cell(b, res, 3, 2), "linefs-dma-intr-MB/s")
}

func BenchmarkFig8a(b *testing.B) {
	res := runExperiment(b, "fig8a")
	b.ReportMetric(cell(b, res, 0, 1), "assise-fillseq-us")
	b.ReportMetric(cell(b, res, 0, 2), "linefs-fillseq-us")
	b.ReportMetric(cell(b, res, 4, 1), "assise-readrandom-us")
	b.ReportMetric(cell(b, res, 4, 2), "linefs-readrandom-us")
}

func BenchmarkFig8b(b *testing.B) {
	res := runExperiment(b, "fig8b")
	b.ReportMetric(cell(b, res, 0, 1), "assise-fileserver-kops")
	b.ReportMetric(cell(b, res, 0, 2), "linefs-fileserver-kops")
	b.ReportMetric(cell(b, res, 1, 1), "assise-varmail-kops")
	b.ReportMetric(cell(b, res, 1, 2), "linefs-varmail-kops")
}

func BenchmarkFig9(b *testing.B) {
	res := runExperiment(b, "fig9")
	b.ReportMetric(cell(b, res, 0, 2), "assise-net-MB")
	b.ReportMetric(cell(b, res, 3, 2), "linefs80-net-MB")
	b.ReportMetric(cell(b, res, 0, 1), "assise-runtime-s")
	b.ReportMetric(cell(b, res, 3, 1), "linefs80-runtime-s")
}

func BenchmarkFig10(b *testing.B) {
	res := runExperiment(b, "fig10")
	b.ReportMetric(cell(b, res, 0, 1), "ops-before-failure")
	b.ReportMetric(cell(b, res, 1, 1), "ops-during-failure")
	b.ReportMetric(cell(b, res, 2, 1), "ops-after-recovery")
}
