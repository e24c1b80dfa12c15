// Chaos is the seeded fault-schedule explorer (linefs-bench -chaos): each
// seed derives one fault schedule — link fault rules, partitions, host
// crashes, laid out on a timeline — and a write+fsync workload, runs them
// together on a full LineFS cluster, heals every fault, and asserts four
// invariants:
//
//  1. durability: every byte a client saw fsync-acknowledged reads back
//     intact after the faults heal;
//  2. convergence: every replica's published volume holds the same bytes
//     for every acknowledged file prefix;
//  3. drain: Env.Shutdown tears the cluster down with no stuck process;
//  4. determinism: replaying the same seed executes the exact same event
//     sequence (same sim-sanitizer digest).
//
// A violated schedule prints a one-line reproducer (-chaos-seed N) so the
// failure can be replayed and debugged bit-identically.
//
// Every sweep starts with a control: the first seed's workload under the
// empty schedule, on the same cluster, which must hold the same four
// invariants and a fifth — no stats.Robustness counter moves.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/fs"
	"linefs/internal/rdma"
	"linefs/internal/sim"
	"linefs/internal/stats"
)

// Schedule-shape constants: the fault window opens after the workload has
// attached and closes at healAt; the workload then has until the deadline
// (sim time) to finish against retransmits, and publication gets a fixed
// drain before the convergence check.
const (
	chaosClients  = 2
	chaosHealAt   = 1600 * time.Millisecond
	chaosDeadline = 30 * time.Second
	chaosDrain    = 2 * time.Second
)

// chaosFault is one scheduled fault on the cluster fabric or a host.
type chaosFault struct {
	kind       chaosKind
	a, b       int // machine indices (directed a->b for rules)
	rule       rdma.FaultRule
	start, end time.Duration
}

type chaosKind uint8

const (
	faultRule chaosKind = iota
	faultPartition
	faultHostCrash
)

func (f *chaosFault) describe() string {
	switch f.kind {
	case faultRule:
		return fmt.Sprintf("rule node%d->node%d drop=%.2f dup=%.2f corrupt=%.2f delay=%.2f/%s [%s,%s]",
			f.a, f.b, f.rule.Drop, f.rule.Dup, f.rule.Corrupt, f.rule.Delay, f.rule.DelayMax,
			f.start, f.end)
	case faultPartition:
		return fmt.Sprintf("partition node%d<->node%d [%s,%s]", f.a, f.b, f.start, f.end)
	default:
		return fmt.Sprintf("host-crash machine%d [%s,%s]", f.a, f.start, f.end)
	}
}

// chaosPlan is everything one seed determines before the simulation starts:
// the fault schedule and the per-client write-round sizes. The plan is
// generated from its own explicitly seeded rng so the simulation's RNG draws
// stay exactly the fault plane's and workload's.
type chaosPlan struct {
	seed   int64
	faults []chaosFault
	rounds [][]int
	// gaps[ci][i] is the think time before round i, pacing each client's
	// writes across the fault window so schedules actually intersect
	// in-flight replication traffic.
	gaps [][]time.Duration
}

// genChaosPlan derives the schedule for one seed.
func genChaosPlan(seed int64) *chaosPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := &chaosPlan{seed: seed}

	nf := 1 + rng.Intn(3)
	for i := 0; i < nf; i++ {
		f := chaosFault{
			start: 200*time.Millisecond + time.Duration(rng.Int63n(int64(time.Second))),
		}
		f.end = f.start + 100*time.Millisecond + time.Duration(rng.Int63n(int64(900*time.Millisecond)))
		if f.end > chaosHealAt {
			f.end = chaosHealAt
		}
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // directed link fault mix
			f.kind = faultRule
			f.a = rng.Intn(3)
			f.b = (f.a + 1 + rng.Intn(2)) % 3
			// At least one effect; each bit adds one to the mix.
			bits := 1 + rng.Intn(15)
			if bits&1 != 0 {
				f.rule.Drop = 0.05 + 0.45*rng.Float64()
			}
			if bits&2 != 0 {
				f.rule.Dup = 0.05 + 0.45*rng.Float64()
			}
			if bits&4 != 0 {
				f.rule.Corrupt = 0.05 + 0.35*rng.Float64()
			}
			if bits&8 != 0 {
				f.rule.Delay = 0.2 + 0.5*rng.Float64()
				f.rule.DelayMax = 100*time.Microsecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)))
			}
		case 4, 5: // bidirectional partition
			f.kind = faultPartition
			f.a = rng.Intn(3)
			f.b = (f.a + 1 + rng.Intn(2)) % 3
		default: // host OS crash on a replica machine (the primary's host
			// carries the workload clients, so it stays up)
			f.kind = faultHostCrash
			f.a = 1 + rng.Intn(2)
		}
		plan.faults = append(plan.faults, f)
	}

	for c := 0; c < chaosClients; c++ {
		nr := 10 + rng.Intn(6)
		sizes := make([]int, nr)
		gaps := make([]time.Duration, nr)
		for i := range sizes {
			sizes[i] = 2048 + rng.Intn(24<<10)
			gaps[i] = time.Duration(rng.Int63n(int64(150 * time.Millisecond)))
		}
		plan.rounds = append(plan.rounds, sizes)
		plan.gaps = append(plan.gaps, gaps)
	}
	return plan
}

// chaosLayout is a deliberately small testbed — schedules run by the
// hundreds — with heartbeats to match the 1.6 s fault window. The LineFS on
// it is the default configuration; the survival layers are not configured:
// they are the protocol, here as in every experiment.
func chaosLayout(clients int) cluster.Layout {
	l := cluster.DefaultLayout()
	l.MaxClients = clients
	l.Spec.PMSize = 16 << 20
	l.VolSize = 8 << 20
	l.LogSize = 2 << 20
	l.ChunkSize = 256 << 10
	l.InodesPerVol = 2048
	l.InoRangePerClient = 512
	l.HeartbeatEvery = 200 * time.Millisecond
	return l
}

func chaosPath(ci int) string { return fmt.Sprintf("/chaos%d", ci) }

// chaosPattern fills buf with the deterministic byte stream of client ci
// starting at file offset off, so any acknowledged prefix can be recomputed
// for comparison.
func chaosPattern(buf []byte, ci, off int) {
	for i := range buf {
		o := off + i
		buf[i] = byte(o ^ (o >> 8) ^ (ci * 131))
	}
}

// chaosRun is one simulation of one plan.
type chaosRun struct {
	digest     sim.Digest
	events     uint64
	violations []string
	robust     stats.Robustness
	acked      int64
	// acks counts successful fsyncs per ackBucket of simulated time, for the
	// availability timeline in reproducer mode.
	acks *stats.TimeSeries
	// bigResends counts the chain resends made while a round of more than
	// one write was out: what says a many-piece fsync met the schedule.
	bigResends int64
}

// runChaosOnce builds a cluster, plays the plan's fault schedule against its
// workload, heals, and checks durability, convergence, and drain. The
// determinism invariant is checked by the caller across two of these runs.
func runChaosOnce(plan *chaosPlan) (r *chaosRun) {
	r = &chaosRun{acks: stats.NewTimeSeries(ackBucket)}
	defer func() {
		if v := recover(); v != nil {
			r.violations = append(r.violations, fmt.Sprintf("panic: %v", v))
		}
	}()

	o := Options{Quick: true, Seed: plan.seed, Trace: &TraceCollector{}}
	sys, err := newLineFS(o, chaosLayout(len(plan.rounds)), nil)
	if err != nil {
		r.violations = append(r.violations, fmt.Sprintf("setup: %v", err))
		return r
	}
	env, cl := sys.Env, sys.LineFS
	fp := cl.InstallFaultPlane()
	name := func(i int) string { return cl.Machines[i].Name }

	// Expand the schedule into timeline events: each fault applies at start
	// and reverts at end, and a blanket heal closes the window — so a
	// schedule can never leave a rule, partition, or crashed host behind.
	type tev struct {
		at    time.Duration
		seq   int
		apply func(p *sim.Proc)
	}
	var evs []tev
	for i := range plan.faults {
		f := plan.faults[i]
		switch f.kind {
		case faultRule:
			evs = append(evs,
				tev{f.start, len(evs), func(p *sim.Proc) { fp.SetRule(name(f.a), name(f.b), f.rule) }},
				tev{f.end, len(evs) + 1, func(p *sim.Proc) { fp.ClearRule(name(f.a), name(f.b)) }})
		case faultPartition:
			evs = append(evs,
				tev{f.start, len(evs), func(p *sim.Proc) { fp.Partition(name(f.a), name(f.b)) }},
				tev{f.end, len(evs) + 1, func(p *sim.Proc) { fp.Heal(name(f.a), name(f.b)) }})
		case faultHostCrash:
			evs = append(evs,
				tev{f.start, len(evs), func(p *sim.Proc) { cl.CrashHost(f.a) }},
				tev{f.end, len(evs) + 1, func(p *sim.Proc) { cl.RecoverHost(f.a) }})
		}
	}
	evs = append(evs, tev{chaosHealAt, len(evs), func(p *sim.Proc) {
		fp.HealAll()
		for i := 1; i < cl.Cfg.Nodes; i++ {
			cl.RecoverHost(i)
		}
	}})
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	env.Go("chaos/faults", func(p *sim.Proc) {
		for _, ev := range evs {
			if d := ev.at - time.Duration(p.Now()); d > 0 {
				p.Sleep(d)
			}
			ev.apply(p)
		}
	})

	// Workload: each client appends pattern rounds and fsyncs; acked[ci]
	// advances only when the fsync acknowledgment arrived. A failed fsync
	// keeps writing — the next successful fsync covers the earlier bytes
	// (log order), which is exactly the client-visible durability contract.
	atts := make([]*core.Attachment, len(plan.rounds))
	fds := make([]int, len(plan.rounds))
	acked := make([]int, len(plan.rounds))
	g := newGroup(env, len(plan.rounds))
	for ci := range plan.rounds {
		ci := ci
		env.Go(fmt.Sprintf("chaos/c%d", ci), func(p *sim.Proc) {
			defer g.done()
			a, err := cl.Attach(p, 0)
			if err != nil {
				r.violations = append(r.violations, fmt.Sprintf("attach c%d: %v", ci, err))
				return
			}
			atts[ci] = a
			fd, err := a.Create(p, chaosPath(ci))
			if err != nil {
				r.violations = append(r.violations, fmt.Sprintf("create c%d: %v", ci, err))
				return
			}
			fds[ci] = fd
			buf := make([]byte, 26<<10)
			off := 0
			for ri, sz := range plan.rounds[ci] {
				if d := plan.gaps[ci][ri]; d > 0 {
					p.Sleep(d)
				}
				resends := cl.Robust.RepResends
				for left := sz; left > 0; {
					n := min(left, len(buf))
					chaosPattern(buf[:n], ci, off)
					if _, err := a.WriteAt(p, fd, uint64(off), buf[:n]); err != nil {
						r.violations = append(r.violations, fmt.Sprintf("write c%d@%d: %v", ci, off, err))
						return
					}
					off, left = off+n, left-n
				}
				err := a.Fsync(p, fd)
				if sz > len(buf) {
					r.bigResends += cl.Robust.RepResends - resends
				}
				if err != nil {
					continue
				}
				acked[ci] = off
				r.acks.Add(time.Duration(p.Now()), 1)
			}
		})
	}
	if !g.wait(chaosDeadline) {
		r.violations = append(r.violations,
			fmt.Sprintf("progress: workload stalled past %s of simulated time", chaosDeadline))
	}

	// Post-heal drain: retransmits flush the pending window and background
	// publication catches every replica's volume up.
	env.RunFor(chaosDrain)

	// Invariant 1 — durability: every acknowledged byte reads back through
	// the client exactly as written.
	vg := newGroup(env, 1)
	env.Go("chaos/verify", func(p *sim.Proc) {
		defer vg.done()
		want := make([]byte, 26<<10)
		for ci, a := range atts {
			if a == nil || acked[ci] == 0 {
				continue
			}
			got := make([]byte, acked[ci])
			n, err := a.ReadAt(p, fds[ci], 0, got)
			if err != nil || n != acked[ci] {
				r.violations = append(r.violations,
					fmt.Sprintf("durability c%d: read %d of %d acked bytes: %v", ci, n, acked[ci], err))
				continue
			}
			for off := 0; off < len(got); off += len(want) {
				end := off + len(want)
				if end > len(got) {
					end = len(got)
				}
				chaosPattern(want[:end-off], ci, off)
				for i := off; i < end; i++ {
					if got[i] != want[i-off] {
						r.violations = append(r.violations,
							fmt.Sprintf("durability c%d: acked byte %d = %#x, want %#x", ci, i, got[i], want[i-off]))
						off = len(got)
						break
					}
				}
			}
		}
	})
	if !vg.wait(time.Duration(env.Now()) + 5*time.Second) {
		r.violations = append(r.violations, "durability: read-back did not complete within 5s of simulated time")
	}

	// Invariant 2 — convergence: every replica's published volume carries
	// the same bytes for each acknowledged prefix. Cost-free reads: the
	// check itself adds no simulation events, so it cannot perturb the
	// determinism digest.
	for ci := range plan.rounds {
		want := acked[ci]
		if want == 0 {
			continue
		}
		expect := make([]byte, want)
		chaosPattern(expect, ci, 0)
		for mi := 0; mi < cl.Cfg.Nodes; mi++ {
			ctx := fs.NoCostCtx(cl.Machines[mi].PM)
			ino, err := cl.Vols[mi].Resolve(ctx, chaosPath(ci))
			if err != nil {
				r.violations = append(r.violations,
					fmt.Sprintf("convergence c%d: node%d missing %s: %v", ci, mi, chaosPath(ci), err))
				continue
			}
			got := make([]byte, want)
			n, err := cl.Vols[mi].ReadFile(ctx, ino, 0, got)
			if err != nil || n != want {
				r.violations = append(r.violations,
					fmt.Sprintf("convergence c%d: node%d holds %d of %d acked bytes: %v", ci, mi, n, want, err))
				continue
			}
			for i := range got {
				if got[i] != expect[i] {
					r.violations = append(r.violations,
						fmt.Sprintf("convergence c%d: node%d byte %d = %#x, want %#x", ci, mi, i, got[i], expect[i]))
					break
				}
			}
		}
	}

	// Invariant 3 — drain: Shutdown must not find a stuck process.
	func() {
		defer func() {
			if v := recover(); v != nil {
				r.violations = append(r.violations, fmt.Sprintf("drain: %v", v))
			}
		}()
		env.Shutdown()
	}()

	for _, n := range acked {
		r.acked += int64(n)
	}
	r.robust = cl.Robust
	if len(plan.faults) == 0 && r.robust.Any() {
		r.violations = append(r.violations, "idle: a survival layer acted without a fault: "+r.robust.Summary())
	}
	r.digest = o.Trace.Digest()
	r.events = o.Trace.Events()
	return r
}

// ackBucket is the availability timeline's resolution.
const ackBucket = 100 * time.Millisecond

// printAckTimeline renders the availability timeline of one run: fsync
// acknowledgments per ackBucket of simulated time, in the style of the
// paper's Figure 10 — a stall shows up as an empty bucket during the fault
// window, recovery as the post-heal burst.
func printAckTimeline(w io.Writer, seed int64, acks *stats.TimeSeries) {
	if len(acks.Buckets()) == 0 {
		return
	}
	fmt.Fprintf(w, "chaos seed %d availability (fsync acks per %s):\n", seed, acks.Width)
	for i, v := range acks.Buckets() {
		c := int(v)
		fmt.Fprintf(w, "  %4.1fs %-8s %d\n",
			(time.Duration(i) * acks.Width).Seconds(), strings.Repeat("#", c), c)
	}
}

// chaosTwice runs one plan twice and returns both runs and the first one's
// violations, plus one if the replay executed a different event sequence.
func chaosTwice(plan *chaosPlan) (r1, r2 *chaosRun, vs []string) {
	r1, r2 = runChaosOnce(plan), runChaosOnce(plan)
	vs = append([]string(nil), r1.violations...)
	if r1.digest != r2.digest || r1.events != r2.events {
		vs = append(vs, fmt.Sprintf(
			"determinism: digest %016x over %d events, replay %016x over %d",
			uint64(r1.digest), r1.events, uint64(r2.digest), r2.events))
	}
	return r1, r2, vs
}

// Chaos runs the fault-free control and then n seeded schedules (or exactly
// one schedule, and no control, when only >= 0). It returns the number of
// violating schedules; every violation prints with a reproducer line. The
// totals are over the seeded schedules.
func Chaos(opts Options, n int, only int64, stdout, stderr io.Writer) int {
	var seeds []int64
	bad := 0
	if only >= 0 {
		seeds = []int64{only}
	} else {
		for i := 0; i < n; i++ {
			seeds = append(seeds, opts.Seed+int64(i))
		}
		control := genChaosPlan(opts.Seed)
		control.faults = nil
		r, _, vs := chaosTwice(control)
		for _, v := range vs {
			fmt.Fprintf(stdout, "chaos control VIOLATION: %s\n", v)
		}
		if len(vs) > 0 {
			bad++
			fmt.Fprintf(stdout, "chaos control: reproduce with: linefs-bench -chaos -chaos-n 0 -seed %d\n", opts.Seed)
		} else {
			fmt.Fprintf(stdout, "chaos control ok: seed %d's workload without faults, %d acked bytes, no robustness counter moved\n",
				opts.Seed, r.acked)
		}
	}

	var agg stats.Robustness
	var totalAcked int64
	var totalEvents uint64
	start := time.Now()
	for k, seed := range seeds {
		plan := genChaosPlan(seed)
		r1, r2, vs := chaosTwice(plan)
		agg.Add(&r1.robust)
		agg.Add(&r2.robust)
		totalAcked += r1.acked
		totalEvents += r1.events + r2.events
		if len(vs) > 0 || only >= 0 {
			for _, f := range plan.faults {
				fmt.Fprintf(stdout, "chaos seed %d schedule: %s\n", seed, f.describe())
			}
		}
		if len(vs) > 0 {
			bad++
			for _, v := range vs {
				fmt.Fprintf(stdout, "chaos seed %d VIOLATION: %s\n", seed, v)
			}
			fmt.Fprintf(stdout, "chaos seed %d: reproduce with: linefs-bench -chaos -chaos-seed %d\n", seed, seed)
		} else if only >= 0 {
			printAckTimeline(stdout, seed, r1.acks)
			fmt.Fprintf(stdout, "chaos seed %d ok: %d acked bytes, digest %016x over %d events\n",
				seed, r1.acked, uint64(r1.digest), r1.events)
		}
		if (k+1)%25 == 0 {
			fmt.Fprintf(stderr, "chaos: %d/%d schedules (%d violations) in %s\n",
				k+1, len(seeds), bad, time.Since(start).Round(time.Millisecond))
		}
	}

	fmt.Fprintf(stdout, "chaos: %d schedule(s), %d violation(s), %d fsync-acked bytes, %d traced events\n",
		len(seeds), bad, totalAcked, totalEvents)
	fmt.Fprintf(stdout, "chaos: robustness: %s\n", agg.Summary())
	fmt.Fprintf(stderr, "chaos ran %d schedule(s) twice in %s\n", len(seeds), time.Since(start).Round(time.Millisecond))
	return bad
}
