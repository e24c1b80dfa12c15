// Command linefs-check runs the correctness suite the paper validates with
// (§5.1: xfstests generic cases and CrashMonkey crash-consistency tests)
// against the simulated systems.
//
//	linefs-check                 # LineFS, all cases
//	linefs-check -system assise  # the baseline (linefs | linefs-np | assise | assise-bg | assise-hl)
//	linefs-check -run crash      # only cases whose name contains "crash"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"linefs/internal/check"
	"linefs/internal/systems"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so tests can drive the CLI with
// captured streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("linefs-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		system = fs.String("system", systems.LineFS.Flag(), systems.Flags())
		filter = fs.String("run", "", "substring filter on case names")
		seed   = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	kind, err := systems.Parse(*system)
	if err != nil {
		fmt.Fprintf(stderr, "linefs-check: %v\n", err)
		return 2
	}
	mk := func() (*check.Target, error) { return check.NewTarget(*seed, kind) }

	passed, failed := 0, 0
	for _, c := range check.AllCases() {
		if *filter != "" && !strings.Contains(c.Name, *filter) {
			continue
		}
		if err := check.RunCase(mk, c); err != nil {
			fmt.Fprintf(stdout, "FAIL  %-24s %v\n", c.Name, err)
			failed++
		} else {
			fmt.Fprintf(stdout, "ok    %-24s\n", c.Name)
			passed++
		}
	}
	fmt.Fprintf(stdout, "\n%d passed, %d failed (%s)\n", passed, failed, *system)
	if failed > 0 {
		return 1
	}
	return 0
}
