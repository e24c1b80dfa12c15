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
//	linefs-bench -repbench            # replication-chain bench -> BENCH_replication.json
//	linefs-bench -selfcheck           # run each experiment twice, fail on digest divergence
//	linefs-bench -chaos               # 200 seeded fault schedules, fail on invariant violations
//	linefs-bench -chaos -chaos-seed 7 # replay one chaos schedule (minimal reproducer)
//	linefs-bench -exp fig4 -cpuprofile cpu.pprof -memprofile heap.pprof
//
// -cpuprofile and -memprofile work with every mode: the CPU profile covers
// the run, and the heap profile is written at exit after a final GC, so its
// in-use view is what the process still holds and its alloc view every
// allocation the run made (go tool pprof -sample_index=alloc_space).
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
	"runtime/pprof"
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
func run(args []string, stdout, stderr io.Writer) (code int) {
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
		cpuOut = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memOut = fs.String("memprofile", "", "write a heap profile to this file at exit, after a final GC")
		opts   bench.Options
		toRun  []bench.Experiment
	)
	modes := []mode{
		repbenchMode(fs),
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
		}},
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stop, err := startProfiles(*cpuOut, *memOut)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, err)
			code = max(code, 1)
		}
	}()

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

// startProfiles starts a CPU profile into cpu, if named, and returns the
// function that ends it and then, if mem is named, collects garbage and
// writes the heap profile there: its in-use view is what the run still holds.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return f.Close()
	}, nil
}

// repbenchMode measures the replication chain in virtual time, writes the
// report as JSON to the path -repbench-out gives, and prints its rows.
func repbenchMode(fs *flag.FlagSet) mode {
	out := fs.String("repbench-out", "BENCH_replication.json", "output path for -repbench")
	row := fmt.Sprintf
	return mode{fs.Bool("repbench", false, "run replication-chain benchmarks and write BENCH_replication.json"), func() ([]string, error) {
		rep, err := bench.WriteRepBench(*out)
		if err != nil {
			return nil, fmt.Errorf("repbench: %w", err)
		}
		cur, base := rep.Current, rep.Baseline
		return []string{
			row("chain chunks/sec:           %12.0f (baseline %12.0f, %.1fx)", cur.ChunksPerSec, base.ChunksPerSec, rep.ChunksPerSecSpeedup),
			row("wire messages/chunk:        %12.2f (baseline %12.2f, %.1fx fewer)", cur.WireMsgsPerChunk, base.WireMsgsPerChunk, rep.WireMsgReduction),
			row("fsync p50 us:               %12.1f (baseline %12.1f)", cur.FsyncP50Micros, base.FsyncP50Micros),
			row("fsync p99 us:               %12.1f (baseline %12.1f, %.2fx)", cur.FsyncP99Micros, base.FsyncP99Micros, rep.FsyncP99Speedup),
			row("sync-path fsync p50 us:     %12.1f (baseline %12.1f)", cur.SyncPathFsyncP50Micros, base.SyncPathFsyncP50Micros),
			row("large fsync p50 us:         %12.1f (baseline %12.1f)", cur.LargeFsyncP50Micros, base.LargeFsyncP50Micros),
			row("fan-in fsyncs/sec, 2 | 4 clients: %8.0f | %.0f (baseline %.0f | %.0f)", cur.FanInFsyncOpsPerSec[0], cur.FanInFsyncOpsPerSec[1], base.FanInFsyncOpsPerSec[0], base.FanInFsyncOpsPerSec[1]),
			row("sync beside bulk fsync p99 us: %7.1f (baseline %12.1f)", cur.SyncBesideBulkFsyncP99Micros, base.SyncBesideBulkFsyncP99Micros),
			"wrote " + *out,
		}, nil
	}}
}
