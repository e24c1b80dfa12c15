package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict judges one end-to-end metric of one workload, new against base,
// by the metric's own direction and bound. A host metric whose repetitions
// spread wider than the bound on either side is unresolved, not unchanged,
// unless the medians differ by no more than the metric's absolute floor.
// A virtual metric is deterministic, so any difference is a real one.
func verdict(m metricDef, base, cur workloadRecord) (verdict string, b, c float64) {
	if m.clock == virtualClock {
		b, c = base.Virtual[m.name], cur.Virtual[m.name]
		switch {
		case b == c:
			return "same", b, c
		case (c > b) == m.higher:
			return "better", b, c
		}
		return "worse", b, c
	}
	bs, cs := base.Host[m.name], cur.Host[m.name]
	b, c = median(bs), median(cs)
	if math.Abs(c-b) <= m.floor {
		return "same", b, c
	}
	if spread(bs) > m.bound || spread(cs) > m.bound {
		return "unresolved", b, c
	}
	change := (c - b) / b
	if !m.higher {
		change = -change
	}
	switch {
	case change < -m.bound:
		return "worse", b, c
	case change > m.bound:
		return "better", b, c
	}
	return "same", b, c
}

// compareFiles prints one row per workload and end-to-end metric, plus the
// event count and trace digest (compared exactly). It exits non-zero if any
// row is worse or a digest differs between runs of the same seed.
func compareFiles(basePath, curPath string, stdout, stderr io.Writer) int {
	base, err := readSuite(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	cur, err := readSuite(curPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	curBy := map[string]workloadRecord{}
	for _, w := range cur.Workloads {
		curBy[w.Workload] = w
	}
	sameSeed := base.Seed == cur.Seed
	fmt.Fprintf(stdout, "base %s (seed %d)  new %s (seed %d)\n", basePath, base.Seed, curPath, cur.Seed)
	fmt.Fprintf(stdout, "%-16s %-26s %-8s %14s %14s %8s  %s\n", "workload", "metric", "clock", "base", "new", "bound", "verdict")
	bad := 0
	for _, bw := range base.Workloads {
		cw, ok := curBy[bw.Workload]
		if !ok {
			fmt.Fprintf(stdout, "%-16s missing from %s\n", bw.Workload, curPath)
			bad++
			continue
		}
		for _, m := range endToEnd {
			v, b, c := verdict(m, bw, cw)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-26s %-8s %14.6g %14.6g %7.0f%%  %s\n", bw.Workload, m.name, m.clock, b, c, 100*m.bound, v)
		}
		exact := func(name, b, c string) {
			v := "same"
			if b != c {
				v = "differs"
				if sameSeed {
					bad++
				}
			}
			fmt.Fprintf(stdout, "%-16s %-26s %-8s %14s %14s %8s  %s\n", bw.Workload, name, virtualClock, b, c, "exact", v)
		}
		exact("sim.events", fmt.Sprint(bw.Events), fmt.Sprint(cw.Events))
		exact("digest", bw.Digest[len(bw.Digest)-12:], cw.Digest[len(cw.Digest)-12:])
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows worse, missing or differing\n", bad)
		return 1
	}
	return 0
}
