// Command benchmark is the whole-system benchmark of this repository: six
// named workloads against real core (LineFS) and assise clusters, reported
// on two clocks with per-layer attribution. See README.md in this
// directory for the metric glossary and how to read the output.
//
// It is a module of its own (go.mod in this directory); run it from here:
//
//	go run . -seed 1                 every workload, both tables
//	go run . -seed 1 -out a.json     ... and keep the numbers
//	go run . -compare a.json b.json  judge b against a
//	go run . -workload W -seed N -seconds S -trace 0|1
//	                                 one run; last line is one JSON object
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// procStart is as close to process start as Go code gets; a child counts
// its set-up time from here.
var procStart = time.Now()

// Every process of the benchmark, driver and children, runs Go code on one
// thread. The simulator runs one simulation process at a time and hands over
// between goroutines; on two threads each hand-over can be a wake-up on the
// other core, and the run then measures the host's scheduler: on this 2-vCPU
// machine mailmix took 2.3 s against 1.6 s on one thread, with twice the
// system time, and slowed far more when the shared host was busy.
const maxProcs = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// exitWithParent ends a child process as soon as its standard input is
// closed. The driver holds the other end of that pipe open and writes
// nothing to it, so this happens exactly when the driver is gone.
func exitWithParent() {
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(3)
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workloadName := fl.String("workload", "", "run only this workload and print one JSON result as the last line")
	seed := fl.Int64("seed", 1, "workload seed: payloads, offsets, file choices and arrival phases derive from it")
	seconds := fl.Float64("seconds", 15, "host seconds of repetitions per workload (at least 3 repetitions run)")
	trace := fl.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics from a traced repetition")
	traceOut := fl.String("trace-out", "", "write the traced repetition's spans to this file (JSON)")
	out := fl.String("out", "", "write the suite's numbers to this file, for -compare")
	compare := fl.Bool("compare", false, "compare two -out files: benchmark -compare base.json new.json")
	child := fl.Bool("child", false, "internal: run one repetition in this process")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)
	var w *workload
	if *workloadName != "" || *child {
		if w = findWorkload(*workloadName); w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
	}

	switch {
	case *compare:
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	case *child:
		go exitWithParent()
		res, r, err := runRep(w, fullScale, *seed, *trace == 1, procStart, 0)
		if err == nil && res.Layer != nil {
			runProbes(r.rec, *seed, res.Layer)
			if *traceOut != "" {
				err = r.rec.writeJSON(*traceOut)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	d := &driver{ctx: ctx, exe: exe, seed: *seed, seconds: *seconds, stdout: stdout, stderr: stderr}
	if w != nil {
		return d.single(w, *trace == 1, *traceOut)
	}
	return d.suite(*out, *traceOut)
}
