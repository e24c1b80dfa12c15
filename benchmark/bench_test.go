package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinyRep runs one traced repetition at tinyScale (a few MiB, well under a
// second) and tears the simulation down again.
func tinyRep(t *testing.T, w *workload, seed, corruptFrom int64) *repResult {
	t.Helper()
	res, r, err := runRep(w, tinyScale, seed, true, time.Now(), corruptFrom)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	r.sys.env.Shutdown()
	return res
}

// Same seed twice: identical virtual metrics, event count and digest, no
// failed operation, and spans that account for the clients' time. Another
// seed: another digest.
func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := tinyRep(t, w, 1, 0), tinyRep(t, w, 1, 0), tinyRep(t, w, 2, 0)
		if a.Failed != 0 || a.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, a.Failed, a.Attempted, a.Notes)
			continue
		}
		if !reflect.DeepEqual(a.Virtual, b.Virtual) || a.Digest != b.Digest || a.Events != b.Events {
			t.Errorf("%s: seed 1 does not repeat:\n%v %s %d\n%v %s %d", w.name, a.Virtual, a.Digest, a.Events, b.Virtual, b.Digest, b.Events)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, a.Digest)
		}
		for _, m := range endToEnd {
			if v := a.Virtual[m.name]; m.clock == virtualClock && !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, v)
			}
		}
		if cov := a.Layer["trace.sim_coverage_pct"]; cov < 95 {
			t.Errorf("%s: spans cover %.1f%% of the clients' virtual time", w.name, cov)
		}
	}
}

// Payload bytes flipped behind the model's back must show as failed
// operations: in a stamp-verified ReadAt or in the read-back from the
// replicas after the drain.
func TestCorruptionIsNoticed(t *testing.T) {
	for _, w := range workloads {
		if res := tinyRep(t, w, 1, 3); res.Failed == 0 {
			t.Errorf("%s: corrupted writes went unnoticed (%d operations)", w.name, res.Attempted)
		}
	}
}

func TestStamps(t *testing.T) {
	for _, compressible := range []bool{false, true} {
		g := newGenerator(7, compressible)
		blk := make([]byte, blockSize)
		g.fill(blk, 3, 9, 2)
		if !g.check(blk, 3, 9, 2) {
			t.Error("a block does not verify as itself")
		}
		if g.check(blk, 3, 9, 1) || g.check(blk, 3, 8, 2) || g.check(blk, 4, 9, 2) {
			t.Error("a block verifies under another identity")
		}
		blk[blockSize-1] ^= 1
		if g.check(blk, 3, 9, 2) {
			t.Error("a flipped body bit verifies")
		}
		if !g.check(make([]byte, blockSize), 3, 9, 0) || g.check(blk, 3, 9, 0) {
			t.Error("version 0 must mean an all-zero block")
		}
	}
}

// The quartile rule is the one the acceptance check is written in:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v", q1, q3, median(v))
	}
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if tailPercentile(2) != 50 || tailPercentile(391) != 90 || tailPercentile(1000) != 99 {
		t.Error("tailPercentile: want ten samples beyond the percentile")
	}
}

func TestVerdicts(t *testing.T) {
	wall := endToEnd[1]
	gbps := endToEnd[3]
	rec := func(wallS []float64, g float64) workloadRecord {
		return workloadRecord{Host: map[string][]float64{wall.name: wallS}, Virtual: map[string]float64{gbps.name: g}}
	}
	base := rec([]float64{1.00, 1.01, 1.02, 1.01}, 2.0)
	for _, tc := range []struct {
		cur  workloadRecord
		m    metricDef
		want string
	}{
		{rec([]float64{1.05, 1.04, 1.06, 1.05}, 2.0), wall, "same"},
		{rec([]float64{1.30, 1.31, 1.29, 1.30}, 2.0), wall, "worse"},
		{rec([]float64{0.70, 0.71, 0.70, 0.72}, 2.0), wall, "better"},
		{rec([]float64{0.70, 1.40, 1.00, 1.20}, 2.0), wall, "unresolved"},
		{base, gbps, "same"},
		{rec(nil, 2.0001), gbps, "better"},
		{rec(nil, 1.9999), gbps, "worse"},
	} {
		if got, _, _ := verdict(tc.m, base, tc.cur); got != tc.want {
			t.Errorf("%s %v: %s, want %s", tc.m.name, tc.cur, got, tc.want)
		}
	}
}

// BENCHMARK.json is a static file; the tables in this package are what the
// program reports. They must say the same thing.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %s %s %s", kind, i, g, m.name, m.unit, better)
			}
			if bounded != (g.Bound != nil) || bounded && math.Abs(*g.Bound-m.bound) > 1e-12 {
				t.Errorf("%s %s: bound differs", kind, m.name)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
}
