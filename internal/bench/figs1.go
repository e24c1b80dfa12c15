package bench

import (
	"fmt"
	"time"

	"linefs/internal/assise"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/node"
	"linefs/internal/sim"
	"linefs/internal/workload"
)

// writeScale runs nProcs clients, each sequentially writing perProc bytes
// in 16 KB IOs with an fsync at the end, and returns the aggregate goodput.
type tputRunner func(o Options, nProcs int, busy bool) (float64, error)

func lineFSWriteTput(parallel bool) tputRunner {
	return func(o Options, nProcs int, busy bool) (float64, error) {
		perProc := fig4PerProc(o)
		cfg := lineFSConfig(o, nProcs)
		cfg.Parallel = parallel
		if busy {
			cfg.DFSPrio = 1
		}
		env, cl, err := newLineFS(o, cfg)
		if err != nil {
			return 0, err
		}
		if busy {
			busyReplicas(env, cl.Machines)
		}
		defer env.Shutdown()
		return measureWriters(env, nProcs, perProc, lineFSClients(cl))
	}
}

func assiseWriteTput(mode assise.Mode) tputRunner {
	return func(o Options, nProcs int, busy bool) (float64, error) {
		perProc := fig4PerProc(o)
		cfg := assiseConfig(o, nProcs, mode)
		if busy {
			cfg.DFSPrio = 1
		}
		env, cl, err := newAssise(o, cfg)
		if err != nil {
			return 0, err
		}
		if busy {
			busyReplicas(env, cl.Machines)
		}
		defer env.Shutdown()
		return measureWriters(env, nProcs, perProc, assiseClients(cl))
	}
}

func fig4PerProc(o Options) int {
	// The file must wrap the client log several times (the paper writes a
	// 12 GB file against a 512 MB log) so throughput is paced by
	// publication+replication reclaim, not by raw log-append speed.
	if o.Quick {
		return 96 << 20 // 4x the quick-scale 24 MB log
	}
	return 2 << 30 // 4x the 512 MB log
}

// attacher gives measureWriters one more client process on the primary.
type attacher func(p *sim.Proc) (*dfs.Client, error)

func lineFSClients(cl *core.Cluster) attacher {
	return func(p *sim.Proc) (*dfs.Client, error) {
		a, err := cl.Attach(p, 0)
		if err != nil {
			return nil, err
		}
		return a.Client, nil
	}
}

func assiseClients(cl *assise.Cluster) attacher {
	return func(p *sim.Proc) (*dfs.Client, error) {
		a, err := cl.Attach(p, 0)
		if err != nil {
			return nil, err
		}
		return a.Client, nil
	}
}

// measureWriters launches the writers and returns aggregate bytes/sec from
// common start to the last fsync return.
func measureWriters(env *sim.Env, nProcs, perProc int, attach attacher) (float64, error) {
	g := newGroup(env, nProcs)
	var end sim.Time
	failed := false
	for i := 0; i < nProcs; i++ {
		idx := i
		env.Go("bench", func(p *sim.Proc) {
			defer g.done()
			c, err := attach(p)
			if err != nil {
				failed = true
				return
			}
			fd, err := c.Create(p, fmt.Sprintf("/w%d", idx))
			if err != nil {
				failed = true
				return
			}
			buf := make([]byte, 16<<10)
			for b := range buf {
				buf[b] = byte(b * (idx + 3))
			}
			for off := 0; off < perProc; off += len(buf) {
				if _, err := c.WriteAt(p, fd, uint64(off), buf); err != nil {
					failed = true
					return
				}
			}
			if err := c.Fsync(p, fd); err != nil {
				failed = true
				return
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	if !g.wait(1200 * time.Second) {
		return 0, fmt.Errorf("bench: writers stalled (%d/%d)", g.n, nProcs)
	}
	if failed {
		return 0, fmt.Errorf("bench: a writer failed")
	}
	elapsed := time.Duration(end)
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(nProcs*perProc) / elapsed.Seconds(), nil
}

// scBytesPerRound makes the co-runner memory-bound: 48 threads streaming
// this much per 10 ms round demand ~80% of the memory system alone, so DFS
// data movement on the same path queues them measurably.
const scBytesPerRound = 5 << 20

// Fig4 reproduces §5.2.1 Figure 4: write throughput scalability for 1-8
// clients with idle and busy replicas across the five systems.
func Fig4(o Options) (*Result, error) {
	systems := []struct {
		name string
		run  tputRunner
	}{
		{"Assise", assiseWriteTput(assise.Pessimistic)},
		{"Assise-BgRepl", assiseWriteTput(assise.BgRepl)},
		{"Assise+Hyperloop", assiseWriteTput(assise.Hyperloop)},
		{"LineFS-NotParallel", lineFSWriteTput(false)},
		{"LineFS", lineFSWriteTput(true)},
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
		for _, s := range systems {
			row := []string{s.name, label}
			var series []float64
			for _, procs := range procsList {
				tput, err := s.run(o, procs, busy)
				if err != nil {
					return nil, fmt.Errorf("fig4 %s/%s procs=%d: %w", s.name, label, procs, err)
				}
				row = append(row, gbps(tput))
				series = append(series, tput/1e9)
			}
			res.Rows = append(res.Rows, row)
			res.Series[s.name+"/"+label] = series
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
	cfg := lineFSConfig(o, 1)
	cfg.ChunkSize = 4 << 20
	env, cl, err := newLineFS(o, cfg)
	if err != nil {
		return nil, err
	}
	defer env.Shutdown()
	g := newGroup(env, 1)
	env.Go("bench", func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		fd, _ := a.Create(p, "/chunks")
		buf := make([]byte, 64<<10)
		total := 32 << 20 // 8 chunks through the pipeline
		for off := 0; off < total; off += len(buf) {
			a.WriteAt(p, fd, uint64(off), buf)
		}
		a.Fsync(p, fd)
		p.Sleep(3 * time.Second)
		g.done()
	})
	if !g.wait(600 * time.Second) {
		return nil, fmt.Errorf("fig5: run stalled")
	}
	st := cl.NICs[0].StageTimes
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

	runSolo := func() (time.Duration, error) {
		env := o.newEnv()
		cfg := lineFSConfig(o, 1)
		cl, err := core.NewCluster(env, cfg)
		if err != nil {
			return 0, err
		}
		cl.Start()
		defer env.Shutdown()
		cpu := cl.Machines[0].HostCPU
		sc := workload.NewStreamcluster(cpu, cpu.NumCores(), rounds, roundWork, 0)
		sc.MemLink = cl.Machines[0].PM.Link()
		sc.BytesPerRound = scBytesPerRound
		sc.Start(env)
		env.RunUntil(300 * time.Second)
		if !sc.Done.Triggered() {
			return 0, fmt.Errorf("fig6: solo streamcluster stalled")
		}
		return sc.Elapsed, nil
	}

	// runSystem measures the writers on a started cluster with streamcluster
	// co-running on every machine.
	runSystem := func(env *sim.Env, machines []*node.Machine, attach attacher) (outcome, error) {
		defer env.Shutdown()
		var scs []*workload.Streamcluster
		for _, m := range machines {
			sc := workload.NewStreamcluster(m.HostCPU, m.HostCPU.NumCores(), rounds, roundWork, 0)
			sc.MemLink = m.PM.Link()
			sc.BytesPerRound = scBytesPerRound
			sc.Start(env)
			scs = append(scs, sc)
		}
		tput, err := measureWriters(env, 2, perProc, attach)
		if err != nil {
			return outcome{}, err
		}
		// Let the co-runners finish.
		deadline := time.Duration(env.Now()) + 60*time.Second
		if !waitEvents(env, deadline, scs[0].Done, scs[1].Done) {
			return outcome{}, fmt.Errorf("streamcluster stalled")
		}
		return outcome{scPrimary: scs[0].Elapsed, scReplica: scs[1].Elapsed, tput: tput}, nil
	}
	runLineFS := func() (outcome, error) {
		env, cl, err := newLineFS(o, lineFSConfig(o, 2))
		if err != nil {
			return outcome{}, err
		}
		return runSystem(env, cl.Machines, lineFSClients(cl))
	}
	runAssise := func(mode assise.Mode) func() (outcome, error) {
		return func() (outcome, error) {
			env, cl, err := newAssise(o, assiseConfig(o, 2, mode))
			if err != nil {
				return outcome{}, err
			}
			return runSystem(env, cl.Machines, assiseClients(cl))
		}
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
	for _, s := range []struct {
		name string
		run  func() (outcome, error)
	}{
		{"Assise", runAssise(assise.Pessimistic)},
		{"Assise-BgRepl", runAssise(assise.BgRepl)},
		{"LineFS", runLineFS},
	} {
		oc, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		res.Rows = append(res.Rows, []string{
			s.name,
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
		env := o.newEnv()
		cfg := lineFSConfig(o, 4)
		cfg.PubMode = mode
		cl, err := core.NewCluster(env, cfg)
		if err != nil {
			return nil, err
		}
		for i, m := range cl.Machines {
			m.HostCPU.Jitter = hostJitter(o.Seed + int64(i))
		}
		cl.Start()
		cpu := cl.Machines[0].HostCPU
		sc := workload.NewStreamcluster(cpu, cpu.NumCores(), rounds, roundWork, 0)
		sc.MemLink = cl.Machines[0].PM.Link()
		sc.BytesPerRound = scBytesPerRound
		sc.Start(env)
		tput, err := measureWriters(env, 4, perProc, lineFSClients(cl))
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
