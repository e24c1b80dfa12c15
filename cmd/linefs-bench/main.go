// Command linefs-bench regenerates the paper's evaluation tables and
// figures on the simulated testbed.
//
// Usage:
//
//	linefs-bench -exp fig4            # one experiment
//	linefs-bench -exp all             # the full suite, paper order
//	linefs-bench -exp all -j 4        # four experiments concurrently
//	linefs-bench -exp table3 -full    # paper-scale sizes (slow)
//	linefs-bench -list                # enumerate experiments
//	linefs-bench -kernelbench         # DES kernel microbench -> BENCH_kernel.json
//	linefs-bench -databench           # data-plane microbench -> BENCH_dataplane.json
//	linefs-bench -repbench            # replication-chain bench -> BENCH_replication.json
//	linefs-bench -selfcheck           # run each experiment twice, fail on digest divergence
//	linefs-bench -chaos               # 200 seeded fault schedules, fail on invariant violations
//	linefs-bench -chaos -chaos-seed 7 # replay one chaos schedule (minimal reproducer)
//
// Every experiment owns a self-contained sim.Env with a deterministic seed,
// so -j N produces byte-identical tables to -j 1; only wall-clock changes.
// Per-experiment timing goes to stderr to keep stdout reproducible.
//
// -selfcheck is the runtime half of the determinism contract (DESIGN.md §8):
// each selected experiment runs twice with the sim-sanitizer enabled, and
// the run fails unless both executions fold the exact same event sequence
// into the same digest and render byte-identical tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"linefs/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// mode is one job the command does instead of printing experiment tables,
// selected by a boolean flag of its own, which it registers along with the
// flags only it reads. run returns the rows to print on stdout and the error
// to exit 1 with (a mode that reports as it goes writes the streams itself).
type mode struct {
	on  *bool
	run func() ([]string, error)
}

// run is main minus the process boundary, so tests can drive the CLI with
// captured streams and compare stdout bytes across -j values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("linefs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment name (table1..table3, fig4..fig10) or 'all'")
		full   = fs.Bool("full", false, "run at paper-scale sizes instead of quick scale")
		seed   = fs.Int64("seed", 42, "simulation seed")
		list   = fs.Bool("list", false, "list experiments and exit")
		j      = fs.Int("j", runtime.GOMAXPROCS(0), "experiments to run concurrently")
		chaosN = fs.Int("chaos-n", 200, "number of seeded fault schedules for -chaos")
		chaosS = fs.Int64("chaos-seed", -1, "replay exactly this chaos seed (reproducer mode); -1 runs -chaos-n schedules")
		opts   bench.Options
		toRun  []bench.Experiment
	)
	modes := append(benchModes(fs),
		mode{fs.Bool("chaos", false, "run the seeded fault-schedule explorer and fail on any invariant violation"), func() ([]string, error) {
			if bad := bench.Chaos(opts, *chaosN, *chaosS, stdout, stderr); bad > 0 {
				return nil, fmt.Errorf("chaos: %d schedule(s) violated invariants", bad)
			}
			return nil, nil
		}},
		mode{fs.Bool("selfcheck", false, "run each experiment twice and fail on sim-sanitizer digest divergence"), func() (rows []string, err error) {
			start := time.Now()
			failed := 0
			for _, r := range bench.SelfCheck(toRun, opts, *j) {
				switch {
				case r.Err != nil:
					fmt.Fprintf(stderr, "selfcheck %s: %v\n", r.Name, r.Err)
					failed++
				case !r.OK():
					rows = append(rows, fmt.Sprintf("selfcheck %-10s DIVERGED: digest %016x over %d events vs %016x over %d events",
						r.Name, uint64(r.Digest[0]), r.Events[0], uint64(r.Digest[1]), r.Events[1]))
					if r.Output[0] != r.Output[1] {
						rows = append(rows, fmt.Sprintf("selfcheck %-10s rendered outputs differ (%d vs %d bytes)",
							r.Name, len(r.Output[0]), len(r.Output[1])))
					}
					failed++
				default:
					rows = append(rows, fmt.Sprintf("selfcheck %-10s ok: digest %016x over %d events",
						r.Name, uint64(r.Digest[0]), r.Events[0]))
				}
			}
			fmt.Fprintf(stderr, "selfchecked %d experiment(s) twice with -j %d in %s\n",
				len(toRun), *j, time.Since(start).Round(time.Millisecond))
			if failed > 0 {
				err = fmt.Errorf("selfcheck: %d experiment(s) nondeterministic or failing", failed)
			}
			return rows, err
		}})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range append(bench.All(), bench.Ablations()...) {
			fmt.Fprintf(stdout, "  %-12s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	opts = bench.Options{Quick: !*full, Seed: *seed}
	switch *exp {
	case "all":
		toRun = bench.All()
	case "ablations":
		toRun = bench.Ablations()
	default:
		for _, name := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", name)
				return 2
			}
			toRun = append(toRun, e)
		}
	}

	for _, m := range modes {
		if !*m.on {
			continue
		}
		rows, err := m.run()
		for _, r := range rows {
			fmt.Fprintln(stdout, r)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	start := time.Now()
	results, errs := bench.RunAll(toRun, opts, *j)
	for i, e := range toRun {
		if errs[i] != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, errs[i])
			return 1
		}
		results[i].Print(stdout)
	}
	fmt.Fprintf(stderr, "ran %d experiment(s) with -j %d in %s\n",
		len(toRun), *j, time.Since(start).Round(time.Millisecond))
	return 0
}

// benchMode is a mode that measures, writes its report as JSON to the path
// its -name-out flag gives, and prints the report's headline rows.
func benchMode(fs *flag.FlagSet, name, usage, file string, run func(out string) ([]string, error)) mode {
	out := fs.String(name+"-out", file, "output path for -"+name)
	return mode{fs.Bool(name, false, usage+" and write "+file), func() ([]string, error) {
		rows, err := run(*out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return append(rows, "wrote "+*out), nil
	}}
}

func benchModes(fs *flag.FlagSet) []mode {
	dtime := fs.Duration("databench-time", time.Second, "per-metric measurement window for -databench")
	rtime := fs.Duration("repbench-time", time.Second, "pooled-path allocation measurement window for -repbench")
	row := fmt.Sprintf
	return []mode{
		benchMode(fs, "kernelbench", "run DES kernel microbenchmarks", "BENCH_kernel.json", func(out string) ([]string, error) {
			cur, err := bench.WriteKernelBench(out)
			base := bench.KernelBaseline
			return []string{
				row("kernel events/sec:          %12.0f (baseline %12.0f, %.1fx)", cur.EventsPerSec, base.EventsPerSec, cur.EventsPerSec/base.EventsPerSec),
				row("kernel handoff events/sec:  %12.0f (baseline %12.0f, %.1fx)", cur.HandoffEventsPerSec, base.HandoffEventsPerSec, cur.HandoffEventsPerSec/base.HandoffEventsPerSec),
				row("resource grants/sec:        %12.0f (baseline %12.0f, %.1fx)", cur.ResourceGrantsPerSec, base.ResourceGrantsPerSec, cur.ResourceGrantsPerSec/base.ResourceGrantsPerSec),
				row("queue put+get pairs/sec:    %12.0f (baseline %12.0f, %.1fx)", cur.QueueOpsPerSec, base.QueueOpsPerSec, cur.QueueOpsPerSec/base.QueueOpsPerSec),
			}, err
		}),
		benchMode(fs, "databench", "run data-plane microbenchmarks", "BENCH_dataplane.json", func(out string) ([]string, error) {
			rep, err := bench.WriteDataBench(out, *dtime)
			cur, base, x := rep.Current, rep.Baseline, rep.Speedup
			return []string{
				row("lzw compress MB/s:          %12.1f (baseline %12.1f, %.1fx)", cur.LZWCompressMBps, base.LZWCompressMBps, x.LZWCompressMBps),
				row("lzw decompress MB/s:        %12.1f (baseline %12.1f, %.1fx)", cur.LZWDecompressMBps, base.LZWDecompressMBps, x.LZWDecompressMBps),
				row("log encode entries/sec:     %12.0f (baseline %12.0f, %.1fx)", cur.LogEncodePerSec, base.LogEncodePerSec, x.LogEncodePerSec),
				row("log decode entries/sec:     %12.0f (baseline %12.0f, %.1fx)", cur.LogDecodePerSec, base.LogDecodePerSec, x.LogDecodePerSec),
				row("pm write+persist GB/s:      %12.2f (baseline %12.2f, %.1fx)", cur.PMWriteGBps, base.PMWriteGBps, x.PMWriteGBps),
				row("aggregate speedup (lzw+log geomean): %.1fx", rep.SpeedupAggregate),
			}, err
		}),
		benchMode(fs, "repbench", "run replication-chain benchmarks", "BENCH_replication.json", func(out string) ([]string, error) {
			rep, err := bench.WriteRepBench(out, *rtime)
			cur, base := rep.Current, rep.Baseline
			return []string{
				row("chain chunks/sec:           %12.0f (baseline %12.0f, %.1fx)", cur.ChunksPerSec, base.ChunksPerSec, rep.ChunksPerSecSpeedup),
				row("wire messages/chunk:        %12.2f (baseline %12.2f, %.1fx fewer)", cur.WireMsgsPerChunk, base.WireMsgsPerChunk, rep.WireMsgReduction),
				row("fsync p50 us:               %12.1f (baseline %12.1f)", cur.FsyncP50Micros, base.FsyncP50Micros),
				row("fsync p99 us:               %12.1f (baseline %12.1f, %.2fx)", cur.FsyncP99Micros, base.FsyncP99Micros, rep.FsyncP99Speedup),
				row("sync-path fsync p50 us:     %12.1f (baseline %12.1f)", cur.SyncPathFsyncP50Micros, base.SyncPathFsyncP50Micros),
				row("large fsync p50 us:         %12.1f (baseline %12.1f)", cur.LargeFsyncP50Micros, base.LargeFsyncP50Micros),
				row("fan-in fsyncs/sec, 2 | 4 clients: %8.0f | %.0f (baseline %.0f | %.0f)", cur.FanInFsyncOpsPerSec[0], cur.FanInFsyncOpsPerSec[1], base.FanInFsyncOpsPerSec[0], base.FanInFsyncOpsPerSec[1]),
				row("pooled path allocs/op:      %12.3f", rep.PooledAllocsPerOp),
			}, err
		}),
	}
}
