package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestParallelStdoutByteIdentical locks in the harness determinism promise:
// running the same experiments with -j 4 produces byte-for-byte the same
// stdout as -j 1. Two experiments make the schedules actually interleave.
func TestParallelStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments twice: 1s plain, 11s under -race")
	}
	runCLI := func(j string) string {
		var out bytes.Buffer
		if code := run([]string{"-exp", "fig5,fig8a", "-j", j, "-seed", "7"}, &out, io.Discard); code != 0 {
			t.Fatalf("-j %s exited %d", j, code)
		}
		return out.String()
	}
	serial := runCLI("1")
	parallel := runCLI("4")
	if serial != parallel {
		t.Fatalf("-j 4 stdout differs from -j 1:\n--- j=1 ---\n%s--- j=4 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "== fig5:") || !strings.Contains(serial, "== fig8a:") {
		t.Fatalf("unexpected output:\n%s", serial)
	}
}

// TestSelfCheckCLI runs the -selfcheck mode end to end on one experiment
// and checks it reports a digest match.
func TestSelfCheckCLI(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-selfcheck", "-exp", "fig5"}, &out, io.Discard); code != 0 {
		t.Fatalf("selfcheck exited %d:\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "selfcheck fig5") || !strings.Contains(got, "ok: digest") {
		t.Fatalf("unexpected selfcheck output:\n%s", got)
	}
}

// TestListAndUsage covers the cheap CLI paths.
func TestListAndUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, io.Discard); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if !strings.Contains(out.String(), "fig9") {
		t.Fatalf("-list output missing experiments:\n%s", out.String())
	}
	if code := run([]string{"-exp", "nosuch"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
}

// TestModes drives every mode of the dispatcher at its smoke size and pins
// the shape of its stdout: which rows, in which order, in which format.
// The numbers and digests are virtual ones other tests pin, so digits are
// compared as '#'.
func TestModes(t *testing.T) {
	if testing.Short() {
		t.Skip("over 10 s under -race (-repbench ~5 s, -selfcheck -exp fig5 ~4 s, -chaos ~2 s); about 1 s without the detector")
	}
	out := filepath.Join(t.TempDir(), "report.json")
	digits := regexp.MustCompile(`[0-9]+`)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-repbench", "-repbench-out", out}, `
chain chunks/sec: # (baseline #, #.#x)
wire messages/chunk: #.# (baseline #.#, #.#x fewer)
fsync p# us: #.# (baseline #.#)
fsync p# us: #.# (baseline #.#, #.#x)
sync-path fsync p# us: #.# (baseline #.#)
large fsync p# us: #.# (baseline #.#)
fan-in fsyncs/sec, # | # clients: # | # (baseline # | #)
sync beside bulk fsync p# us: #.# (baseline #.#)
wrote ` + out},
		{[]string{"-chaos", "-chaos-n", "2"}, `
chaos control ok: seed #'s workload without faults, # acked bytes, no robustness counter moved
chaos: # schedule(s), # violation(s), # fsync-acked bytes, # traced events
chaos: robustness: COUNTERS`},
		{[]string{"-selfcheck", "-exp", "fig5"}, `
selfcheck fig# ok: digest # over # events`},
	} {
		os.Remove(out)
		var stdout bytes.Buffer
		if code := run(c.args, &stdout, io.Discard); code != 0 {
			t.Errorf("%v exited %d", c.args, code)
			continue
		}
		got := stdout.String()
		if strings.Contains(got, "wrote") {
			if _, err := os.Stat(out); err != nil {
				t.Errorf("%v: says it wrote %s: %v", c.args, out, err)
			}
		}
		// Column padding, hex digests and which robustness counters two
		// schedules happen to move are not what is pinned.
		shape := func(s string) string {
			s = strings.ReplaceAll(strings.TrimSpace(s), out, "OUT")
			s = regexp.MustCompile(`digest [0-9a-f]+`).ReplaceAllString(s, "digest #")
			s = regexp.MustCompile(`( [a-z-]+=[0-9]+)+$`).ReplaceAllString(s, " COUNTERS")
			lines := strings.Split(digits.ReplaceAllString(s, "#"), "\n")
			for i, l := range lines {
				lines[i] = strings.Join(strings.Fields(l), " ")
			}
			return strings.Join(lines, "\n")
		}
		if shape(got) != shape(c.want) {
			t.Errorf("%v printed\n%s\nwant the shape of%s", c.args, got, c.want)
		}
	}
	if code := run([]string{"-repbench", "-repbench-out", filepath.Join(out, "no", "such")}, io.Discard, io.Discard); code != 1 {
		t.Errorf("-repbench to an unwritable path exited %d, want 1", code)
	}
}

// TestProfiles runs one experiment with -cpuprofile and -memprofile: both
// files are written and non-empty, and stdout is the same bytes as without
// them.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	runCLI := func(args ...string) string {
		var out bytes.Buffer
		if code := run(append([]string{"-exp", "fig5", "-j", "1"}, args...), &out, io.Discard); code != 0 {
			t.Fatalf("%v exited %d", args, code)
		}
		return out.String()
	}
	plain := runCLI()
	if profiled := runCLI("-cpuprofile", cpu, "-memprofile", mem); profiled != plain {
		t.Errorf("stdout with profiles differs:\n--- plain ---\n%s--- profiled ---\n%s", plain, profiled)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", f, err)
		}
	}
	if code := run([]string{"-list", "-memprofile", filepath.Join(dir, "no", "such")}, io.Discard, io.Discard); code != 1 {
		t.Errorf("-memprofile to an unwritable path exited %d, want 1", code)
	}
}
