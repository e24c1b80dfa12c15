package bench

import (
	"fmt"
	"time"

	"linefs/internal/assise"
	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/kvstore"
	"linefs/internal/sim"
	"linefs/internal/stats"
	"linefs/internal/workload"
)

// clientMaker abstracts which DFS a workload runs on.
type clientMaker func(p *sim.Proc) (*dfs.Client, error)

// fig8System builds a busy-replica cluster of either system and returns the
// environment plus a client factory.
func fig8System(o Options, system string, clients int) (*sim.Env, clientMaker, error) {
	switch system {
	case "linefs":
		cfg := lineFSConfig(o, clients)
		cfg.DFSPrio = 1
		env, cl, err := newLineFS(o, cfg)
		if err != nil {
			return nil, nil, err
		}
		busyReplicas(env, cl.Machines)
		return env, func(p *sim.Proc) (*dfs.Client, error) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				return nil, err
			}
			return a.Client, nil
		}, nil
	default:
		cfg := assiseConfig(o, clients, assise.BgRepl)
		cfg.DFSPrio = 1
		env, cl, err := newAssise(o, cfg)
		if err != nil {
			return nil, nil, err
		}
		busyReplicas(env, cl.Machines)
		return env, func(p *sim.Proc) (*dfs.Client, error) {
			a, err := cl.Attach(p, 0)
			if err != nil {
				return nil, err
			}
			return a.Client, nil
		}, nil
	}
}

// Fig8a reproduces §5.3 Figure 8a: LevelDB db_bench average operation
// latency on LineFS and Assise with busy replicas.
func Fig8a(o Options) (*Result, error) {
	n := 1500
	if !o.Quick {
		n = 50000
	}
	ops := []string{"fillseq", "fillrandom", "fillsync", "readseq", "readrandom", "readhot"}
	type outcome map[string]time.Duration

	runSystem := func(system string) (outcome, error) {
		env, mk, err := fig8System(o, system, 1)
		if err != nil {
			return nil, err
		}
		defer env.Shutdown()
		out := outcome{}
		g := newGroup(env, 1)
		env.Go("dbbench", func(p *sim.Proc) {
			defer g.done()
			c, err := mk(p)
			if err != nil {
				return
			}
			cfg := kvstore.DefaultBenchConfig(n)
			opt := kvstore.DefaultOptions()
			if o.Quick {
				// Scale the memtable with the op count so flushes,
				// SSTable reads and compactions still happen.
				opt.MemtableBytes = 256 << 10
			}
			// Fill benches use fresh databases, as db_bench does.
			db1, _ := kvstore.Open(p, c, "/db-seq", opt)
			if lat, err := kvstore.FillSeq(p, db1, cfg); err == nil {
				out["fillseq"] = lat.Mean()
			}
			db2, _ := kvstore.Open(p, c, "/db-rnd", opt)
			if lat, err := kvstore.FillRandom(p, db2, cfg); err == nil {
				out["fillrandom"] = lat.Mean()
			}
			syncCfg := cfg
			syncCfg.N = n / 10 // fillsync is ~100x slower per op; keep runs bounded
			db3, _ := kvstore.Open(p, c, "/db-sync", opt)
			if lat, err := kvstore.FillSync(p, db3, syncCfg); err == nil {
				out["fillsync"] = lat.Mean()
			}
			// Reads run against the sequentially-filled database.
			if lat, err := kvstore.ReadSeq(p, db1, cfg); err == nil {
				out["readseq"] = lat.Mean()
			}
			if lat, err := kvstore.ReadRandom(p, db1, cfg); err == nil {
				out["readrandom"] = lat.Mean()
			}
			if lat, err := kvstore.ReadHot(p, db1, cfg); err == nil {
				out["readhot"] = lat.Mean()
			}
		})
		if !g.wait(3600 * time.Second) {
			return nil, fmt.Errorf("fig8a: %s stalled", system)
		}
		return out, nil
	}

	lf, err := runSystem("linefs")
	if err != nil {
		return nil, err
	}
	as, err := runSystem("assise")
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig8a",
		Title:  "LevelDB db_bench average latency (us/op), busy replicas",
		Header: []string{"op", "Assise", "LineFS"},
	}
	for _, op := range ops {
		res.Rows = append(res.Rows, []string{op, us(as[op]), us(lf[op])})
	}
	res.Notes = append(res.Notes,
		"paper: LineFS 80% better fillseq latency, 27% better fillrandom and fillsync; reads equal")
	return res, nil
}

// Fig8b reproduces §5.3 Figure 8b: Filebench fileserver and varmail
// throughput with busy replicas.
func Fig8b(o Options) (*Result, error) {
	files := 200
	opsN := 1200
	if !o.Quick {
		files = 10000
		opsN = 20000
	}
	run := func(system string, profile workload.FilebenchProfile) (float64, error) {
		env, mk, err := fig8System(o, system, 1)
		if err != nil {
			return 0, err
		}
		defer env.Shutdown()
		var rate float64
		g := newGroup(env, 1)
		env.Go("filebench", func(p *sim.Proc) {
			defer g.done()
			c, err := mk(p)
			if err != nil {
				return
			}
			res, err := workload.Filebench(p, c, workload.FilebenchConfig{
				Profile: profile, Files: files, Ops: opsN,
				Dir: "/fb", Seed: o.Seed,
			}, nil)
			if err == nil {
				rate = res.OpsPerSec
			}
		})
		if !g.wait(3600 * time.Second) {
			return 0, fmt.Errorf("fig8b: %s/%v stalled", system, profile)
		}
		return rate, nil
	}
	res := &Result{
		Name:   "fig8b",
		Title:  "Filebench throughput (kops/s), busy replicas",
		Header: []string{"profile", "Assise", "LineFS"},
	}
	for _, prof := range []workload.FilebenchProfile{workload.Fileserver, workload.Varmail} {
		as, err := run("assise", prof)
		if err != nil {
			return nil, err
		}
		lf, err := run("linefs", prof)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			prof.String(),
			fmt.Sprintf("%.1f", as/1e3),
			fmt.Sprintf("%.1f", lf/1e3),
		})
	}
	res.Notes = append(res.Notes,
		"paper: LineFS +79% on fileserver (write-heavy, no fsync); -21% on varmail (fsync-heavy, open RPCs)")
	return res, nil
}

// Fig9 reproduces §5.4 Figure 9: Tencent Sort runtime and network bandwidth
// consumption for Assise and LineFS with 40/60/80% compressible input, with
// iperf background traffic contending for the network.
func Fig9(o Options) (*Result, error) {
	records := 120000
	if !o.Quick {
		records = 2000000
	}
	type outcome struct {
		elapsed  time.Duration
		netBytes int64
		series   []float64
	}
	run := func(system string, zeroRatio float64, compress bool) (outcome, error) {
		env := o.newEnv()
		defer env.Shutdown()
		var mk clientMaker
		var netTotal func() int64
		var fabricSeries *stats.TimeSeries
		switch system {
		case "linefs":
			cfg := lineFSConfig(o, 8)
			cfg.Compress = compress
			cl, err := core.NewCluster(env, cfg)
			if err != nil {
				return outcome{}, err
			}
			fabricSeries = stats.NewTimeSeries(100 * time.Millisecond)
			cl.Fabric.Series = fabricSeries
			cl.Start()
			ip := workload.StartIperf(env, cl.Machines[1].Port, cl.Machines[2].Port, 128<<10)
			defer ip.Stop()
			mk = func(p *sim.Proc) (*dfs.Client, error) {
				a, err := cl.Attach(p, 0)
				if err != nil {
					return nil, err
				}
				return a.Client, nil
			}
			netTotal = func() int64 { return cl.Fabric.Total.Total() - ip.Bytes }
			var clients []*dfs.Client
			g := newGroup(env, 1)
			var oc outcome
			env.Go("sort", func(p *sim.Proc) {
				defer g.done()
				for i := 0; i < 8; i++ {
					c, err := mk(p)
					if err != nil {
						return
					}
					clients = append(clients, c)
				}
				pre := netTotal()
				res, err := workload.TencentSort(p, env, clients, cl.Machines[0].HostCPU, sortCfg(records, zeroRatio))
				if err == nil {
					oc.elapsed = res.Elapsed
					oc.netBytes = netTotal() - pre
				}
			})
			if !g.wait(3600 * time.Second) {
				return outcome{}, fmt.Errorf("fig9: linefs sort stalled")
			}
			oc.series = fabricSeries.Rate()
			return oc, nil
		default:
			cfg := assiseConfig(o, 8, assise.BgRepl)
			cl, err := assise.NewCluster(env, cfg)
			if err != nil {
				return outcome{}, err
			}
			fabricSeries = stats.NewTimeSeries(100 * time.Millisecond)
			cl.Fabric.Series = fabricSeries
			cl.Start()
			ip := workload.StartIperf(env, cl.Machines[1].Port, cl.Machines[2].Port, 128<<10)
			defer ip.Stop()
			var clients []*dfs.Client
			g := newGroup(env, 1)
			var oc outcome
			env.Go("sort", func(p *sim.Proc) {
				defer g.done()
				for i := 0; i < 8; i++ {
					a, err := cl.Attach(p, 0)
					if err != nil {
						return
					}
					clients = append(clients, a.Client)
				}
				pre := cl.Fabric.Total.Total() - ip.Bytes
				res, err := workload.TencentSort(p, env, clients, cl.Machines[0].HostCPU, sortCfg(records, zeroRatio))
				if err == nil {
					oc.elapsed = res.Elapsed
					oc.netBytes = cl.Fabric.Total.Total() - ip.Bytes - pre
				}
			})
			if !g.wait(3600 * time.Second) {
				return outcome{}, fmt.Errorf("fig9: assise sort stalled")
			}
			oc.series = fabricSeries.Rate()
			return oc, nil
		}
	}

	res := &Result{
		Name:   "fig9",
		Title:  "Tencent Sort: runtime and DFS network consumption",
		Header: []string{"config", "runtime (s)", "DFS net bytes (MB)", "vs Assise"},
		Series: map[string][]float64{},
	}
	base, err := run("assise", 0.6, false)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{
		"Assise", fmt.Sprintf("%.2f", base.elapsed.Seconds()),
		fmt.Sprintf("%.0f", float64(base.netBytes)/1e6), "-",
	})
	for _, zr := range []float64{0.4, 0.6, 0.8} {
		oc, err := run("linefs", zr, true)
		if err != nil {
			return nil, err
		}
		change := 100 * (float64(oc.netBytes)/float64(base.netBytes) - 1)
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("LineFS-%.0f%%", zr*100),
			fmt.Sprintf("%.2f", oc.elapsed.Seconds()),
			fmt.Sprintf("%.0f", float64(oc.netBytes)/1e6),
			fmt.Sprintf("%+.0f%%", change),
		})
	}
	res.Notes = append(res.Notes,
		"paper: LineFS saves 29/49/72% network bytes at 40/60/80% ratios; 80% case also runs ~11% faster")
	return res, nil
}

func sortCfg(records int, zeroRatio float64) workload.SortConfig {
	cfg := workload.DefaultSortConfig(records)
	cfg.ZeroRatio = zeroRatio
	return cfg
}

// Fig10 reproduces §5.5 Figure 10: Varmail throughput over time on LineFS
// while replica 1's host crashes at t=8s and recovers at t=16s.
func Fig10(o Options) (*Result, error) {
	cfg := lineFSConfig(o, 1)
	cfg.HeartbeatEvery = 500 * time.Millisecond
	env, cl, err := newLineFS(o, cfg)
	if err != nil {
		return nil, err
	}
	series := stats.NewTimeSeries(time.Second)
	files := 100
	if !o.Quick {
		files = 10000
	}

	env.Go("varmail", func(p *sim.Proc) {
		a, _ := cl.Attach(p, 0)
		// Run far more ops than fit in 25 s; the timeline is what matters.
		workload.Filebench(p, a.Client, workload.FilebenchConfig{
			Profile: workload.Varmail, Files: files, Ops: 100000000,
			Dir: "/mail", Seed: o.Seed,
		}, series)
	})
	env.Go("fault", func(p *sim.Proc) {
		p.Sleep(8 * time.Second)
		cl.CrashHost(1)
		p.Sleep(8 * time.Second)
		cl.RecoverHost(1)
	})
	env.RunUntil(25 * time.Second)
	defer env.Shutdown()

	buckets := series.Buckets()
	res := &Result{
		Name:   "fig10",
		Title:  "Varmail throughput timeline (ops/s); host of replica 1 down from t=8s to t=16s",
		Header: []string{"window", "value"},
		Series: map[string][]float64{"varmail-ops-per-sec": buckets},
	}
	// Shape check: mean throughput during the failure window versus before.
	mean := func(lo, hi int) float64 {
		var sum float64
		n := 0
		for i := lo; i < hi && i < len(buckets); i++ {
			sum += buckets[i]
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	pre := mean(2, 8)
	dur := mean(9, 16)
	post := mean(17, 24)
	res.Rows = append(res.Rows, []string{"mean ops/s before failure (t=2..8)", fmt.Sprintf("%.0f", pre)})
	res.Rows = append(res.Rows, []string{"mean ops/s during failure (t=9..16)", fmt.Sprintf("%.0f", dur)})
	res.Rows = append(res.Rows, []string{"mean ops/s after recovery (t=17..24)", fmt.Sprintf("%.0f", post)})
	if pre > 0 {
		res.Rows = append(res.Rows, []string{"during/before ratio", fmt.Sprintf("%.2f", dur/pre)})
	}
	res.Notes = append(res.Notes,
		"paper: no observable throughput drop during the failure window (isolated NICFS keeps the chain alive)")
	if cl.Robust.Any() {
		res.Notes = append(res.Notes, "robustness: "+cl.Robust.Summary())
	}
	return res, nil
}
