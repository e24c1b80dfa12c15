package bench

import (
	"fmt"
	"time"

	"linefs/internal/cluster"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/node"
	"linefs/internal/sim"
	"linefs/internal/systems"
	"linefs/internal/workload"
)

func fig4PerProc(o Options) int {
	// The file must wrap the client log several times (the paper writes a
	// 12 GB file against a 512 MB log) so throughput is paced by
	// publication+replication reclaim, not by raw log-append speed.
	if o.Quick {
		return 96 << 20 // 4x the quick-scale 24 MB log
	}
	return 2 << 30 // 4x the 512 MB log
}

// measureWriters runs nProcs clients, each sequentially writing perProc
// bytes in 16 KB IOs with an fsync at the end, and returns aggregate bytes/sec
// from common start to the last fsync return.
func measureWriters(sys *systems.System, nProcs, perProc int) (float64, error) {
	var end sim.Time
	err := runClients(sys, "bench", nProcs, 1200*time.Second, func(p *sim.Proc, c *dfs.Client, idx int) error {
		fd, err := c.Create(p, fmt.Sprintf("/w%d", idx))
		if err != nil {
			return err
		}
		buf := make([]byte, 16<<10)
		for b := range buf {
			buf[b] = byte(b * (idx + 3))
		}
		for off := 0; off < perProc; off += len(buf) {
			if _, err := c.WriteAt(p, fd, uint64(off), buf); err != nil {
				return err
			}
		}
		if err := c.Fsync(p, fd); err != nil {
			return err
		}
		end = max(end, p.Now())
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("bench: writers: %w", err)
	}
	elapsed := time.Duration(end)
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(nProcs*perProc) / elapsed.Seconds(), nil
}

// writeTput deploys kind on l and measures one writer per client slot.
func writeTput(o Options, kind systems.Kind, l cluster.Layout, busy bool) (float64, error) {
	sys, err := deploy(o, kind, l, busy, nil)
	if err != nil {
		return 0, err
	}
	defer sys.Env.Shutdown()
	return measureWriters(sys, l.MaxClients, fig4PerProc(o))
}

// scBytesPerRound makes the co-runner memory-bound: 48 threads streaming
// this much per 10 ms round demand ~80% of the memory system alone, so DFS
// data movement on the same path queues them measurably.
const scBytesPerRound = 5 << 20

// coRun starts streamcluster on all of m's host cores.
func coRun(env *sim.Env, m *node.Machine, rounds int, roundWork time.Duration) *workload.Streamcluster {
	sc := workload.NewStreamcluster(m.HostCPU, m.HostCPU.NumCores(), rounds, roundWork, 0)
	sc.MemLink = m.PM.Link()
	sc.BytesPerRound = scBytesPerRound
	sc.Start(env)
	return sc
}

// Fig4 reproduces §5.2.1 Figure 4: write throughput scalability for 1-8
// clients with idle and busy replicas across the five systems.
func Fig4(o Options) (*Result, error) {
	kinds := []systems.Kind{
		systems.Assise, systems.AssiseBgRepl, systems.AssiseHyperloop,
		systems.LineFSNotParallel, systems.LineFS,
	}
	procsList := []int{1, 2, 4, 8}
	res := &Result{
		Name:   "fig4",
		Title:  "write throughput scalability (GB/s)",
		Header: []string{"system", "replicas", "1", "2", "4", "8"},
		Series: map[string][]float64{},
	}
	for _, busy := range []bool{false, true} {
		label := "idle"
		if busy {
			label = "busy"
		}
		for _, kind := range kinds {
			row := []string{kind.String(), label}
			var series []float64
			for _, procs := range procsList {
				tput, err := writeTput(o, kind, o.layout(procs), busy)
				if err != nil {
					return nil, fmt.Errorf("fig4 %v/%s procs=%d: %w", kind, label, procs, err)
				}
				row = append(row, gbps(tput))
				series = append(series, tput/1e9)
			}
			res.Rows = append(res.Rows, row)
			res.Series[kind.String()+"/"+label] = series
		}
	}
	res.Notes = append(res.Notes,
		"paper idle: Assise 0.65 GB/s @1, LineFS saturates ~2.2 GB/s by 2 clients, NotParallel >=60% below LineFS",
		"paper busy: nobody saturates; LineFS leads by ~33% at scale")
	return res, nil
}

// Fig5 reproduces §5.2.3 Figure 5: per-stage latency of publishing and
// replicating one 4 MB chunk.
func Fig5(o Options) (*Result, error) {
	l := o.layout(1)
	l.ChunkSize = 4 << 20
	sys, err := newLineFS(o, l, nil)
	if err != nil {
		return nil, err
	}
	defer sys.Env.Shutdown()
	err = runClients(sys, "bench", 1, 600*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) error {
		fd, err := c.Create(p, "/chunks")
		if err != nil {
			return err
		}
		buf := make([]byte, 64<<10)
		total := 32 << 20 // 8 chunks through the pipeline
		for off := 0; off < total; off += len(buf) {
			if _, err := c.WriteAt(p, fd, uint64(off), buf); err != nil {
				return err
			}
		}
		if err := c.Fsync(p, fd); err != nil {
			return err
		}
		p.Sleep(3 * time.Second)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	st := sys.LineFS.NICs[0].StageTimes
	paper := map[string]string{
		"fetch": "1025", "validate": "65", "publish": "1502", "transfer": "1505", "ack": "7",
	}
	res := &Result{
		Name:   "fig5",
		Title:  "pipeline stage latency for a 4 MB chunk (us)",
		Header: []string{"stage", "measured", "paper"},
	}
	for _, stage := range []string{"fetch", "validate", "publish", "transfer", "ack"} {
		res.Rows = append(res.Rows, []string{stage, us(st[stage].Mean()), paper[stage]})
	}
	res.Notes = append(res.Notes,
		"fetch and publish/transfer dominate (high-latency interconnects); overlap hides them in the pipeline")
	return res, nil
}

// Fig6 reproduces §5.2.4 Figure 6: streamcluster execution time on primary
// and replicas plus DFS throughput when both run together at equal
// priority.
func Fig6(o Options) (*Result, error) {
	perProc := fig4PerProc(o)
	rounds := 12
	if !o.Quick {
		rounds = 40
	}
	roundWork := 10 * time.Millisecond

	type outcome struct {
		scPrimary time.Duration
		scReplica time.Duration
		tput      float64
	}

	// runSolo measures streamcluster alone on the primary of an idle
	// cluster, without the dispatch-jitter model.
	runSolo := func() (time.Duration, error) {
		sys, err := systems.New(o.newEnv(), systems.LineFS, o.layout(1), nil)
		if err != nil {
			return 0, err
		}
		sys.Start()
		defer sys.Env.Shutdown()
		sc := coRun(sys.Env, sys.Machines[0], rounds, roundWork)
		sys.Env.RunUntil(300 * time.Second)
		if !sc.Done.Triggered() {
			return 0, fmt.Errorf("fig6: solo streamcluster stalled")
		}
		return sc.Elapsed, nil
	}
	// runSystem measures two writers with streamcluster co-running on every
	// machine.
	runSystem := func(kind systems.Kind) (outcome, error) {
		sys, err := deploy(o, kind, o.layout(2), false, nil)
		if err != nil {
			return outcome{}, err
		}
		defer sys.Env.Shutdown()
		var scs []*workload.Streamcluster
		for _, m := range sys.Machines {
			scs = append(scs, coRun(sys.Env, m, rounds, roundWork))
		}
		tput, err := measureWriters(sys, 2, perProc)
		if err != nil {
			return outcome{}, err
		}
		// Let the co-runners finish.
		deadline := time.Duration(sys.Env.Now()) + 60*time.Second
		if !waitEvents(sys.Env, deadline, scs[0].Done, scs[1].Done) {
			return outcome{}, fmt.Errorf("streamcluster stalled")
		}
		return outcome{scPrimary: scs[0].Elapsed, scReplica: scs[1].Elapsed, tput: tput}, nil
	}

	solo, err := runSolo()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig6",
		Title:  "streamcluster execution time and DFS throughput under co-execution",
		Header: []string{"config", "sc primary (s)", "sc replica (s)", "DFS MB/s"},
		Rows: [][]string{
			{"streamcluster solo", fmt.Sprintf("%.3f", solo.Seconds()), fmt.Sprintf("%.3f", solo.Seconds()), "-"},
		},
	}
	for _, kind := range []systems.Kind{systems.Assise, systems.AssiseBgRepl, systems.LineFS} {
		oc, err := runSystem(kind)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", kind, err)
		}
		res.Rows = append(res.Rows, []string{
			kind.String(),
			fmt.Sprintf("%.3f", oc.scPrimary.Seconds()),
			fmt.Sprintf("%.3f", oc.scReplica.Seconds()),
			mbps(oc.tput),
		})
	}
	res.Notes = append(res.Notes,
		"paper: Assise slows streamcluster by 72%/66% (primary/replica); LineFS only 49%/19% with ~46% more DFS throughput")
	return res, nil
}

// Fig7 reproduces §5.2.4 Figure 7: the publication-method comparison —
// streamcluster execution time and LineFS throughput for each kernel-worker
// copying mode.
func Fig7(o Options) (*Result, error) {
	perProc := fig4PerProc(o) / 2
	rounds := 12
	roundWork := 10 * time.Millisecond

	modes := []core.PubMode{
		core.PubCPUMemcpy, core.PubDMAPolling, core.PubDMAPollingBatch,
		core.PubDMAIntrBatch, core.PubNoCopy,
	}
	res := &Result{
		Name:   "fig7",
		Title:  "publication method: streamcluster time and LineFS throughput",
		Header: []string{"method", "streamcluster (s)", "LineFS MB/s"},
	}
	for _, mode := range modes {
		sys, err := newLineFS(o, o.layout(4), func(c *core.Config) { c.PubMode = mode })
		if err != nil {
			return nil, err
		}
		env := sys.Env
		sc := coRun(env, sys.Machines[0], rounds, roundWork)
		tput, err := measureWriters(sys, 4, perProc)
		if err != nil {
			return nil, fmt.Errorf("fig7 %v: %w", mode, err)
		}
		stalled := !waitEvents(env, time.Duration(env.Now())+60*time.Second, sc.Done)
		env.Shutdown()
		if stalled {
			return nil, fmt.Errorf("fig7 %v: streamcluster stalled", mode)
		}
		res.Rows = append(res.Rows, []string{
			mode.String(), fmt.Sprintf("%.3f", sc.Elapsed.Seconds()), mbps(tput),
		})
	}
	res.Notes = append(res.Notes,
		"paper: CPU memcpy slows streamcluster 61.5%; DMA interrupt+batch only 23% vs no copy, and +40% LineFS throughput over memcpy")
	return res, nil
}
