// Package bench regenerates every table and figure of the paper's
// evaluation (§5): each experiment builds the systems under test on the
// simulated testbed, drives the paper's workload, and reports the same rows
// or series the paper does. Absolute numbers come from the calibrated cost
// model; the shapes — who wins, by what factor, where crossovers fall — are
// the reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/hw"
	"linefs/internal/node"
	"linefs/internal/sim"
	"linefs/internal/systems"
)

// Options control experiment scale.
type Options struct {
	// Quick shrinks file sizes and op counts so the full suite runs in
	// minutes; the paper-scale values are used otherwise.
	Quick bool
	Seed  int64
	// Trace, when non-nil, enrolls every environment the experiment builds
	// in the sim-sanitizer (see sanitize.go). Set by DigestOf/SelfCheck.
	Trace *TraceCollector
}

// DefaultOptions runs quick-scale experiments.
func DefaultOptions() Options { return Options{Quick: true, Seed: 42} }

// Result is one experiment's output.
type Result struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Series holds named numeric series for figure-style results.
	Series map[string][]float64
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	// Sorted so output is reproducible run to run (map iteration is not).
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  series %s:", name)
		for _, v := range r.Series[name] {
			fmt.Fprintf(w, " %.2f", v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	Name string
	Desc string
	Run  func(Options) (*Result, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Client CPU utilization: Assise vs Ceph (§2.1)", Table1},
		{"table2", "Read throughput: Assise vs LineFS (§5.2.2)", Table2},
		{"table3", "Write+fsync latency, idle and busy replicas (§5.2.5)", Table3},
		{"fig4", "Write throughput scalability, idle and busy (§5.2.1)", Fig4},
		{"fig5", "Publish/replication pipeline latency breakdown (§5.2.3)", Fig5},
		{"fig6", "Streamcluster co-execution interference (§5.2.4)", Fig6},
		{"fig7", "Kernel-worker publication methods (§5.2.4)", Fig7},
		{"fig8a", "LevelDB db_bench latency (§5.3)", Fig8a},
		{"fig8b", "Filebench fileserver/varmail throughput (§5.3)", Fig8b},
		{"fig9", "Tencent Sort with replication compression (§5.4)", Fig9},
		{"fig10", "Varmail availability across host failure (§5.5)", Fig10},
	}
}

// Find returns the experiment by name.
func Find(name string) (Experiment, bool) {
	for _, e := range append(All(), Ablations()...) {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- Shared setup ----------------------------------------------------

// hostJitter is the dispatch-delay model applied to host CPUs: it only
// fires when every core is busy (saturation), reproducing the context
// switch and dispatch overheads that inflate host-based DFS latencies
// under co-running load (§3.3.2).
func hostJitter(seed int64) *hw.JitterModel {
	return hw.NewJitterModel(seed, 45*time.Microsecond, 0.004, 2500*time.Microsecond)
}

// sizes is the one quick/full size table: PM device, public area, per-client
// log and inode table. Every system is sized alike, so their numbers compare
// like for like.
func (o Options) sizes() (pm, vol, log int64, inodes int) {
	if o.Quick {
		return 1600 << 20, 1280 << 20, 24 << 20, 32768
	}
	return 16 << 30, 12 << 30, 512 << 20, 131072
}

// layout is the testbed at the experiment's scale with clients log slots.
func (o Options) layout(clients int) cluster.Layout {
	l := cluster.DefaultLayout()
	l.MaxClients = clients
	l.Spec.PMSize, l.VolSize, l.LogSize, l.InodesPerVol = o.sizes()
	return l
}

// deploy builds and starts one of the five systems on l with jitter-modeled
// hosts. busy is the paper's busy-replica setting: the DFS's host-side work
// runs at raised priority and a co-tenant saturates every replica's cores.
// lineFSOnly adjusts the rest of a LineFS configuration (see systems.New).
func deploy(o Options, kind systems.Kind, l cluster.Layout, busy bool, lineFSOnly func(*core.Config)) (*systems.System, error) {
	if busy {
		l.DFSPrio = 1
	}
	sys, err := systems.New(o.newEnv(), kind, l, lineFSOnly)
	if err != nil {
		return nil, err
	}
	for i, m := range sys.Machines {
		m.HostCPU.Jitter = hostJitter(o.Seed + int64(i))
	}
	sys.Start()
	if busy {
		for _, m := range sys.Machines[1:] {
			hog(sys.Env, m)
		}
	}
	return sys, nil
}

// appBaseline is the Assise that Table 1, Table 2, Fig 8 and Fig 9 run and
// print under the plain name "Assise": the mode with background replication.
const appBaseline = systems.AssiseBgRepl

// newLineFS is deploy for the experiments only LineFS runs: idle replicas,
// the daemon's own counters and fault hooks at sys.LineFS.
func newLineFS(o Options, l cluster.Layout, lineFSOnly func(*core.Config)) (*systems.System, error) {
	return deploy(o, systems.LineFS, l, false, lineFSOnly)
}

// runClients runs body on n client processes, each with a client of its own
// attached on the primary, and drives the simulation until all have
// returned. The first error — a failed attach, or what a body returns — ends
// its worker and is the run's error; so is outliving the virtual deadline
// (absolute, from simulation start). name is the processes' name, which the
// sanitizer digest folds in.
func runClients(sys *systems.System, name string, n int, deadline time.Duration, body func(p *sim.Proc, c *dfs.Client, idx int) error) error {
	g := newGroup(sys.Env, n)
	var first error
	for i := 0; i < n; i++ {
		sys.Env.Go(name, func(p *sim.Proc) {
			defer g.done()
			c, err := sys.Attach(p, 0)
			if err == nil {
				err = body(p, c, i)
			}
			if err != nil && first == nil {
				first = err
			}
		})
	}
	if !g.wait(deadline) {
		return fmt.Errorf("stalled: %d of %d clients done", g.n, n)
	}
	return first
}

// hog saturates a machine's host cores with an endless CPU-bound co-tenant
// (streamcluster stand-in for "busy" configurations).
func hog(env *sim.Env, m *node.Machine) {
	for t := 0; t < m.HostCPU.NumCores(); t++ {
		env.Go(m.Name+"/hog", func(p *sim.Proc) {
			for {
				m.HostCPU.Compute(p, time.Millisecond, 0, "app")
			}
		})
	}
}

// gb formats bytes/sec as GB/s.
func gbps(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// mbps formats bytes/sec as MB/s.
func mbps(v float64) string { return fmt.Sprintf("%.0f", v/1e6) }

// us formats a duration in microseconds.
func us(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d)/1e3) }

// group tracks completion of a set of benchmark worker processes through a
// completion event, so the driver can run the simulation straight to the
// finish instead of polling in 50 ms RunFor steps (which kept finished
// experiments burning events on background processes).
type group struct {
	env  *sim.Env
	want int
	n    int
	ev   *sim.Event
}

// newGroup creates a tracker expecting want workers.
func newGroup(env *sim.Env, want int) *group {
	return &group{env: env, want: want, ev: sim.NewEvent(env)}
}

// done records one worker's completion; the last one fires the event.
func (g *group) done() {
	g.n++
	if g.n == g.want {
		g.ev.Trigger(nil)
	}
}

// wait runs the simulation until every worker called done or the virtual
// deadline (absolute, from simulation start) passes; it reports completion.
// The run stops at the exact completion event.
func (g *group) wait(deadline time.Duration) bool {
	if g.n >= g.want {
		return true
	}
	g.env.Go("bench/wait", func(p *sim.Proc) {
		p.WaitTimeout(g.ev, deadline-time.Duration(p.Now()))
		g.env.Stop()
	})
	g.env.Run()
	return g.n >= g.want
}

// waitEvents runs the simulation until all events trigger or the virtual
// deadline (absolute) passes; it reports whether all triggered.
func waitEvents(env *sim.Env, deadline time.Duration, evs ...*sim.Event) bool {
	all := true
	env.Go("bench/waitEvents", func(p *sim.Proc) {
		for _, ev := range evs {
			if _, ok := p.WaitTimeout(ev, deadline-time.Duration(p.Now())); !ok {
				all = false
				break
			}
		}
		env.Stop()
	})
	env.Run()
	return all
}

// RunAll executes the experiments j at a time (j <= 0 means GOMAXPROCS)
// and returns results in input order. Every sim.Env is self-contained and
// each experiment receives its own Options value — and therefore its own
// deterministic seed — so the output is byte-identical regardless of j.
func RunAll(exps []Experiment, opts Options, j int) ([]*Result, []error) {
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	sem := make(chan struct{}, j)
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = e.Run(opts)
		}(i, e)
	}
	wg.Wait()
	return results, errs
}
