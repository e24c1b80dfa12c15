package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// The driver runs every repetition as a child process of its own, one at a
// time, so that peak RSS, CPU seconds and page faults are that repetition's
// alone.
type driver struct {
	ctx     context.Context // cancelled by SIGINT/SIGTERM: the running child is killed and waited for
	exe     string
	seed    int64
	seconds float64
	stdout  io.Writer
	stderr  io.Writer
}

// minReps is the least number of untraced repetitions behind a host median.
const minReps = 3

// workloadResult is one workload's outcome: the untraced repetitions the
// end-to-end metrics come from and, if asked for, the traced one.
type workloadResult struct {
	w        *workload
	reps     []*repResult
	traced   *repResult
	problems []string
}

func (d *driver) child(w *workload, traced bool, spanPath string) (*repResult, error) {
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(d.seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
		if spanPath != "" {
			args = append(args, "-trace-out", spanPath)
		}
	}
	cmd := exec.CommandContext(d.ctx, d.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = d.stderr
	// The child's standard input is a pipe nothing is written to. It is
	// closed when the child has been waited for or when this process ends,
	// however that happens, and a child that sees it closed exits (see
	// exitWithParent): no child outlives the driver.
	if _, err := cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	runErr := cmd.Run() // Run waits for the child to end, also when the context kills it
	if d.ctx.Err() != nil {
		return nil, fmt.Errorf("%s child: interrupted", w.name)
	}
	res := &repResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s child: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s child: unreadable result: %w", w.name, err)
	}
	return res, nil
}

// runWorkload runs the traced repetition first (if wanted), then untraced
// ones until the time budget is used and at least minReps have run.
func (d *driver) runWorkload(w *workload, wantTrace bool, spanPath string) (*workloadResult, error) {
	start := time.Now()
	wr := &workloadResult{w: w}
	var err error
	if wantTrace {
		if wr.traced, err = d.child(w, true, spanPath); err != nil {
			return nil, err
		}
	}
	for len(wr.reps) < minReps || time.Since(start).Seconds() < d.seconds {
		res, err := d.child(w, false, "")
		if err != nil {
			return nil, err
		}
		wr.reps = append(wr.reps, res)
		if res.Failed > 0 {
			break // a failing workload will not get better by repeating it
		}
	}
	if wr.traced != nil && wr.traced.Layer != nil {
		wr.traced.Layer["trace.overhead_pct"] = 100 * (wr.traced.Host["wall_s"]/median(wr.hostSamples("wall_s")) - 1)
	}
	wr.check()
	return wr, nil
}

// check applies the pass/fail rules: no failed operation, identical virtual
// metrics in every repetition (traced included: tracing must not change the
// simulation), and a span file that accounts for the clients' time.
func (wr *workloadResult) check() {
	all := wr.reps
	if wr.traced != nil {
		all = append([]*repResult{wr.traced}, wr.reps...)
	}
	for i, r := range all {
		if r.Failed > 0 {
			wr.problems = append(wr.problems, fmt.Sprintf("repetition %d: %d of %d operations failed: %v", i, r.Failed, r.Attempted, r.Notes))
		}
	}
	if len(wr.problems) > 0 {
		return
	}
	for _, m := range endToEnd {
		if m.clock != virtualClock {
			continue
		}
		for i, r := range all[1:] {
			if r.Virtual[m.name] != all[0].Virtual[m.name] {
				wr.problems = append(wr.problems, fmt.Sprintf("%s is not deterministic: %v in repetition 0, %v in repetition %d",
					m.name, all[0].Virtual[m.name], r.Virtual[m.name], i+1))
				break
			}
		}
	}
	if wr.traced != nil {
		if cov := wr.traced.Layer["trace.sim_coverage_pct"]; cov < 95 {
			wr.problems = append(wr.problems, fmt.Sprintf("spans cover only %.1f%% of the clients' measured virtual time", cov))
		}
	}
}

func (wr *workloadResult) hostSamples(name string) []float64 {
	s := make([]float64, len(wr.reps))
	for i, r := range wr.reps {
		s[i] = r.Host[name]
	}
	return s
}

// value is the reported value of an end-to-end metric: the median over the
// untraced repetitions on the host clock, the (single) value on the
// virtual clock.
func (wr *workloadResult) value(m metricDef) float64 {
	if m.clock == virtualClock {
		return wr.reps[0].Virtual[m.name]
	}
	return median(wr.hostSamples(m.name))
}

func (wr *workloadResult) counts() (attempted, failed int64) {
	for _, r := range wr.reps {
		attempted += r.Attempted
		failed += r.Failed
	}
	if wr.traced != nil {
		attempted += wr.traced.Attempted
		failed += wr.traced.Failed
	}
	return
}

// print writes every metric by name with its unit and its clock.
func (wr *workloadResult) print(w io.Writer, seed int64) {
	attempted, failed := wr.counts()
	fmt.Fprintf(w, "== %s: %s\n", wr.w.name, wr.w.why)
	fmt.Fprintf(w, "   seed %d, %d untraced repetitions, ops_attempted %d, ops_failed %d\n", seed, len(wr.reps), attempted, failed)
	if len(wr.problems) == 0 {
		fmt.Fprintln(w, "   end-to-end (tracing off; host clock: median of the repetitions [q1 .. q3]; virtual clock: identical in every repetition)")
		for _, m := range endToEnd {
			if m.clock == virtualClock {
				note := ""
				switch n := wr.reps[0].FsyncSamples; m.name {
				case "sim_fsync_p50_us":
					note = fmt.Sprintf("  (%d samples)", n)
				case "sim_fsync_tail_us":
					note = fmt.Sprintf("  (p%.0f of %d samples)", tailPercentile(n), n)
				}
				fmt.Fprintf(w, "     %-34s %14.6g %-6s virtual%s\n", m.name, wr.value(m), m.unit, note)
				continue
			}
			q1, q3 := quartiles(wr.hostSamples(m.name))
			fmt.Fprintf(w, "     %-34s %14.6g %-6s host     [%.6g .. %.6g]\n", m.name, wr.value(m), m.unit, q1, q3)
		}
		if t := wr.traced; t != nil {
			fmt.Fprintf(w, "   per-layer (traced repetition: digest %s, %d events in the measured phase)\n", t.Digest, t.Events)
			for _, m := range perLayer {
				fmt.Fprintf(w, "     %-34s %14.6g %-6s %s\n", m.name, t.Layer[m.name], m.unit, m.clock)
			}
		}
	}
	for _, p := range wr.problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single is one run of one workload; its last line of output is the JSON
// object the benchmark contract asks for.
func (d *driver) single(w *workload, traced bool, spanPath string) int {
	wr, err := d.runWorkload(w, traced, spanPath)
	if err != nil {
		fmt.Fprintf(d.stderr, "benchmark: %v\n", err)
		return 1
	}
	wr.print(d.stdout, d.seed)
	metrics := map[string]jsonMetric{}
	if len(wr.problems) == 0 {
		if traced {
			for _, m := range perLayer {
				metrics[m.name] = jsonMetric{wr.traced.Layer[m.name], m.unit}
			}
		} else {
			for _, m := range endToEnd {
				metrics[m.name] = jsonMetric{wr.value(m), m.unit}
			}
		}
	}
	attempted, failed := wr.counts()
	line, err := json.Marshal(map[string]any{
		"correct": len(wr.problems) == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(d.stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(d.stdout, "%s\n", line)
	if len(wr.problems) > 0 {
		return 1
	}
	return 0
}

// suiteFile is what -out writes and -compare reads.
type suiteFile struct {
	Seed      int64            `json:"seed"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Workload     string               `json:"workload"`
	Attempted    int64                `json:"ops_attempted"`
	Failed       int64                `json:"ops_failed"`
	FsyncSamples int                  `json:"fsync_samples"`
	Host         map[string][]float64 `json:"host"`    // one sample per untraced repetition
	Virtual      map[string]float64   `json:"virtual"` // identical in every repetition
	Layer        map[string]float64   `json:"layer"`
	Events       uint64               `json:"events"`
	Digest       string               `json:"digest"`
}

// suite runs every workload with both tables.
func (d *driver) suite(outPath, spanPrefix string) int {
	file := suiteFile{Seed: d.seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	fmt.Fprintf(d.stdout, "LineFS whole-system benchmark: seed %d, %s, %d CPUs, GOMAXPROCS=%d in every process\n",
		d.seed, file.GoVersion, file.NumCPU, maxProcs)
	fmt.Fprintln(d.stdout, "sim_* and every metric marked \"virtual\" is time of the modelled testbed (deterministic for a seed);")
	fmt.Fprintln(d.stdout, "every metric marked \"host\" is time or memory of the simulator in this sandbox (noisy).")
	start := time.Now()
	bad := 0
	for _, w := range workloads {
		spanPath := ""
		if spanPrefix != "" {
			spanPath = fmt.Sprintf("%s.%s.json", spanPrefix, w.name)
		}
		wr, err := d.runWorkload(w, true, spanPath)
		if err != nil {
			fmt.Fprintf(d.stderr, "benchmark: %v\n", err)
			return 1
		}
		wr.print(d.stdout, d.seed)
		if len(wr.problems) > 0 {
			bad++
			continue
		}
		rec := workloadRecord{Workload: w.name, FsyncSamples: wr.reps[0].FsyncSamples,
			Host: map[string][]float64{}, Virtual: wr.reps[0].Virtual,
			Layer: wr.traced.Layer, Events: wr.traced.Events, Digest: wr.traced.Digest}
		rec.Attempted, rec.Failed = wr.counts()
		for _, m := range endToEnd {
			if m.clock == hostClock {
				rec.Host[m.name] = wr.hostSamples(m.name)
			}
		}
		file.Workloads = append(file.Workloads, rec)
	}
	fmt.Fprintf(d.stdout, "total %.1f s, %d of %d workloads failed\n", time.Since(start).Seconds(), bad, len(workloads))
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(d.stderr, "benchmark: -out: %v\n", err)
			return 1
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
