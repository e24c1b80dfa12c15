// Package mapordertest seeds maporder violations.
package mapordertest

import (
	"fmt"
	"sort"

	"linefs/internal/sim"
)

func printsInMapOrder(m map[string]int) {
	for k, v := range m { // want `map-range body writes output via fmt\.Println`
		fmt.Println(k, v)
	}
}

func appendsInMapOrder(m map[string]int) []string {
	var out []string
	for k := range m { // want `map-range body appends to "out"`
		if k != "" {
			out = append(out, k)
		}
	}
	return out
}

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectThenSortSlice(m map[string]int) []int {
	var vs []int
	for _, v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func simWorkInMapOrder(p *sim.Proc, m map[string]bool) {
	for name := range m { // want `map-range body performs simulated work`
		stat(p, name)
	}
}

func stat(p *sim.Proc, name string) {}

func triggersInMapOrder(evs map[string]*sim.Event) {
	for _, ev := range evs { // want `map-range body calls sim method Trigger`
		ev.Trigger(nil)
	}
}

func loopLocalScratch(m map[string][]int) {
	for k, vs := range m {
		kept := vs[:0]
		for _, v := range vs {
			if v > 0 {
				kept = append(kept, v)
			}
		}
		m[k] = kept
	}
}

func deleteOnly(m map[string]int) {
	for k := range m {
		if k == "" {
			delete(m, k)
		}
	}
}

func sliceRangeIsFine(s []string) []string {
	var out []string
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

func allowed(m map[string]int) {
	//lint:allow maporder order feeds a commutative sum only
	for _, v := range m {
		fmt.Println(v)
	}
}

type slot struct{ p *sim.Proc }

func (s *slot) kill()                { s.p.Sleep(0) }
func (s *slot) late(t sim.Time) bool { return s.p.Now() > t }

// NICFS.Crash's old shape: kill drives the simulation one call down. A clock
// read one call down does not.
func killsInMapOrder(slots map[int]*slot, t sim.Time) {
	for _, s := range slots { // want `map-range body calls kill, which drives the simulation`
		s.kill()
	}
	for _, s := range slots {
		_ = s.late(t)
	}
}
