package bench

import (
	"fmt"
	"time"

	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/kvstore"
	"linefs/internal/sim"
	"linefs/internal/stats"
	"linefs/internal/systems"
	"linefs/internal/workload"
)

// Fig8a reproduces §5.3 Figure 8a: LevelDB db_bench average operation
// latency on LineFS and Assise with busy replicas.
func Fig8a(o Options) (*Result, error) {
	n := 1500
	if !o.Quick {
		n = 50000
	}
	ops := []string{"fillseq", "fillrandom", "fillsync", "readseq", "readrandom", "readhot"}
	type outcome map[string]time.Duration

	runSystem := func(kind systems.Kind) (outcome, error) {
		sys, err := deploy(o, kind, o.layout(1), true, nil)
		if err != nil {
			return nil, err
		}
		defer sys.Env.Shutdown()
		out := outcome{}
		err = runClients(sys, "dbbench", 1, 3600*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) error {
			cfg := kvstore.DefaultBenchConfig(n)
			opt := kvstore.DefaultOptions()
			if o.Quick {
				// Scale the memtable with the op count so flushes,
				// SSTable reads and compactions still happen.
				opt.MemtableBytes = 256 << 10
			}
			syncCfg := cfg
			syncCfg.N = n / 10 // fillsync is ~100x slower per op; keep runs bounded
			// Each database is opened on first use: fill benches get fresh
			// ones, as db_bench does, and reads run against fillseq's.
			dbs := map[string]*kvstore.DB{}
			for _, b := range []struct {
				op, dir string
				cfg     kvstore.BenchConfig
				run     func(*sim.Proc, *kvstore.DB, kvstore.BenchConfig) (*stats.Latency, error)
			}{
				{"fillseq", "/db-seq", cfg, kvstore.FillSeq},
				{"fillrandom", "/db-rnd", cfg, kvstore.FillRandom},
				{"fillsync", "/db-sync", syncCfg, kvstore.FillSync},
				{"readseq", "/db-seq", cfg, kvstore.ReadSeq},
				{"readrandom", "/db-seq", cfg, kvstore.ReadRandom},
				{"readhot", "/db-seq", cfg, kvstore.ReadHot},
			} {
				db := dbs[b.dir]
				if db == nil {
					var err error
					if db, err = kvstore.Open(p, c, b.dir, opt); err != nil {
						return fmt.Errorf("%s: %w", b.op, err)
					}
					dbs[b.dir] = db
				}
				lat, err := b.run(p, db, b.cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", b.op, err)
				}
				out[b.op] = lat.Mean()
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fig8a: %v: %w", kind, err)
		}
		return out, nil
	}

	lf, err := runSystem(systems.LineFS)
	if err != nil {
		return nil, err
	}
	as, err := runSystem(appBaseline)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig8a",
		Title:  "LevelDB db_bench average latency (us/op), busy replicas",
		Header: []string{"op", systems.Assise.String(), systems.LineFS.String()},
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
	run := func(kind systems.Kind, profile workload.FilebenchProfile) (rate float64, err error) {
		sys, err := deploy(o, kind, o.layout(1), true, nil)
		if err != nil {
			return 0, err
		}
		defer sys.Env.Shutdown()
		err = runClients(sys, "filebench", 1, 3600*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) error {
			res, err := workload.Filebench(p, c, workload.FilebenchConfig{
				Profile: profile, Files: files, Ops: opsN,
				Dir: "/fb", Seed: o.Seed,
			}, nil)
			if err != nil {
				return err
			}
			rate = res.OpsPerSec
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("fig8b: %v/%v: %w", kind, profile, err)
		}
		return rate, nil
	}
	res := &Result{
		Name:   "fig8b",
		Title:  "Filebench throughput (kops/s), busy replicas",
		Header: []string{"profile", systems.Assise.String(), systems.LineFS.String()},
	}
	for _, prof := range []workload.FilebenchProfile{workload.Fileserver, workload.Varmail} {
		as, err := run(appBaseline, prof)
		if err != nil {
			return nil, err
		}
		lf, err := run(systems.LineFS, prof)
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
	// run sorts on eight clients of one system (LineFS with its compression
	// stage on), without the dispatch-jitter model, while iperf loads the
	// link between the two replicas.
	run := func(kind systems.Kind, zeroRatio float64) (oc outcome, err error) {
		sys, err := systems.New(o.newEnv(), kind, o.layout(8), func(c *core.Config) { c.Compress = true })
		if err != nil {
			return oc, err
		}
		env := sys.Env
		defer env.Shutdown()
		fabricSeries := stats.NewTimeSeries(100 * time.Millisecond)
		sys.Fabric.Series = fabricSeries
		sys.Start()
		ip := workload.StartIperf(env, sys.Machines[1].Port, sys.Machines[2].Port, 128<<10)
		defer ip.Stop()
		netTotal := func() int64 { return sys.Fabric.Total.Total() - ip.Bytes }
		err = runClients(sys, "sort", 1, 3600*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) error {
			clients := []*dfs.Client{c}
			for len(clients) < 8 {
				c, err := sys.Attach(p, 0)
				if err != nil {
					return err
				}
				clients = append(clients, c)
			}
			pre := netTotal()
			res, err := workload.TencentSort(p, env, clients, sys.Machines[0].HostCPU, sortCfg(records, zeroRatio))
			if err != nil {
				return err
			}
			oc.elapsed = res.Elapsed
			oc.netBytes = netTotal() - pre
			return nil
		})
		if err != nil {
			return oc, fmt.Errorf("fig9: %v: %w", kind, err)
		}
		oc.series = fabricSeries.Rate()
		return oc, nil
	}

	res := &Result{
		Name:   "fig9",
		Title:  "Tencent Sort: runtime and DFS network consumption",
		Header: []string{"config", "runtime (s)", "DFS net bytes (MB)", "vs Assise"},
		Series: map[string][]float64{},
	}
	base, err := run(appBaseline, 0.6)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, []string{
		systems.Assise.String(), fmt.Sprintf("%.2f", base.elapsed.Seconds()),
		fmt.Sprintf("%.0f", float64(base.netBytes)/1e6), "-",
	})
	for _, zr := range []float64{0.4, 0.6, 0.8} {
		oc, err := run(systems.LineFS, zr)
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
	l := o.layout(1)
	l.HeartbeatEvery = 500 * time.Millisecond
	sys, err := newLineFS(o, l, nil)
	if err != nil {
		return nil, err
	}
	env, cl := sys.Env, sys.LineFS
	defer env.Shutdown()
	series := stats.NewTimeSeries(time.Second)
	files := 100
	if !o.Quick {
		files = 10000
	}

	var runErr error
	env.Go("varmail", func(p *sim.Proc) {
		c, err := sys.Attach(p, 0)
		if err == nil {
			// Run far more ops than fit in 25 s; the timeline is what matters.
			_, err = workload.Filebench(p, c, workload.FilebenchConfig{
				Profile: workload.Varmail, Files: files, Ops: 100000000,
				Dir: "/mail", Seed: o.Seed,
			}, series)
		}
		runErr = err
	})
	env.Go("fault", func(p *sim.Proc) {
		p.Sleep(8 * time.Second)
		cl.CrashHost(1)
		p.Sleep(8 * time.Second)
		cl.RecoverHost(1)
	})
	env.RunUntil(25 * time.Second)
	if runErr != nil {
		return nil, fmt.Errorf("fig10: %w", runErr)
	}

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
