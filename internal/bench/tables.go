package bench

import (
	"fmt"
	"time"

	"linefs/internal/cephsim"
	"linefs/internal/dfs"
	"linefs/internal/sim"
	"linefs/internal/stats"
	"linefs/internal/systems"
	"linefs/internal/workload"
)

// Table1 reproduces §2.1 Table 1: client CPU utilization and throughput of
// Assise versus Ceph for 1/2/4/8 benchmark processes on 25 GbE and 100 GbE,
// each process writing a file with 4 KB IOs.
func Table1(o Options) (*Result, error) {
	perProc := 24 << 20 // paper: 24 GB
	if !o.Quick {
		perProc = 256 << 20
	}
	nets := []struct {
		name string
		bw   float64
	}{
		{"25GbE", 2.2e9},
		{"100GbE", 8.8e9},
	}
	procsList := []int{1, 2, 4, 8}

	res := &Result{
		Name:   "table1",
		Title:  "client CPU utilization and write throughput (100% = 1 core)",
		Header: []string{"procs", "net", "Assise GB/s", "Ceph GB/s", "Assise CPU%", "Ceph CPU%"},
	}

	for _, net := range nets {
		for _, procs := range procsList {
			// --- Assise ---
			l := o.layout(procs)
			l.Spec.NetBW = net.bw
			sys, err := deploy(o, appBaseline, l, false, nil)
			if err != nil {
				return nil, err
			}
			var end sim.Time
			err = runClients(sys, "bench", procs, 300*time.Second, func(p *sim.Proc, c *dfs.Client, idx int) error {
				_, err := workload.WriteBench(p, c, fmt.Sprintf("/w%d", idx), perProc, 4096, o.Seed+int64(idx))
				end = max(end, p.Now())
				return err
			})
			elapsed := time.Duration(end)
			aTput := float64(procs*perProc) / elapsed.Seconds()
			aCPU := sys.Machines[0].HostCPU.Util.Percent("dfs", elapsed)
			sys.Env.Shutdown()
			if err != nil {
				return nil, fmt.Errorf("table1: %v: %w", sys.Kind, err)
			}

			// --- Ceph ---
			ccfg := cephsim.DefaultConfig()
			ccfg.Spec.NetBW = net.bw
			cenv := o.newEnv()
			ccl := cephsim.NewCluster(cenv, ccfg)
			ccl.Start()
			cg := newGroup(cenv, procs)
			var cend sim.Time
			for i := 0; i < procs; i++ {
				cenv.Go("bench", func(p *sim.Proc) {
					c := ccl.Attach(p)
					for off := 0; off < perProc; off += 4096 {
						c.Write(p, 4096)
					}
					c.Sync(p)
					if p.Now() > cend {
						cend = p.Now()
					}
					cg.done()
				})
			}
			cok := cg.wait(300 * time.Second)
			cElapsed := time.Duration(cend)
			cTput := float64(procs*perProc) / cElapsed.Seconds()
			cCPU := ccl.ClientM.HostCPU.Util.Percent("ceph", cElapsed)
			cenv.Shutdown()
			if !cok {
				return nil, fmt.Errorf("table1: ceph run stalled")
			}

			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%d", procs), net.name,
				gbps(aTput), gbps(cTput),
				fmt.Sprintf("%.0f%%", aCPU), fmt.Sprintf("%.0f%%", cCPU),
			})
		}
	}
	res.Notes = append(res.Notes,
		"paper: Assise client CPU grows with bandwidth (up to 509% at 100GbE/8 procs); Ceph stays ~2 cores")
	return res, nil
}

// Table2 reproduces §5.2.2 Table 2: local sequential and random read
// throughput of Assise and LineFS (reads never involve the SmartNIC).
func Table2(o Options) (*Result, error) {
	total := 96 << 20
	if !o.Quick {
		total = 2 << 30
	}
	io := 16 << 10

	type out struct{ seq, rnd float64 }
	measure := func(kind systems.Kind) (r out, err error) {
		sys, err := deploy(o, kind, o.layout(1), false, nil)
		if err != nil {
			return r, err
		}
		defer sys.Env.Shutdown()
		err = runClients(sys, "bench", 1, 600*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) (err error) {
			if _, err = workload.WriteBench(p, c, "/r", total, io, o.Seed); err != nil {
				return err
			}
			p.Sleep(2 * time.Second) // publication drains
			if r.seq, err = workload.ReadBench(p, c, "/r", total, io, false, o.Seed); err != nil {
				return err
			}
			r.rnd, err = workload.ReadBench(p, c, "/r", total, io, true, o.Seed)
			return err
		})
		if err != nil {
			return r, fmt.Errorf("table2: %v: %w", kind, err)
		}
		return r, nil
	}

	lf, err := measure(systems.LineFS)
	if err != nil {
		return nil, err
	}
	as, err := measure(appBaseline)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "table2",
		Title:  "read throughput (MB/s)",
		Header: []string{"pattern", systems.Assise.String(), systems.LineFS.String()},
		Rows: [][]string{
			{"sequential", mbps(as.seq), mbps(lf.seq)},
			{"random", mbps(as.rnd), mbps(lf.rnd)},
		},
		Notes: []string{"paper: 3147/3134 sequential, 2960/2946 random — near-identical, reads bypass the NIC"},
	}
	return res, nil
}

// Table3 reproduces §5.2.5 Table 3: 16 KB write+fsync latency with idle and
// busy replicas for Assise, Assise+Hyperloop and LineFS.
func Table3(o Options) (*Result, error) {
	nOps := 4000
	if !o.Quick {
		nOps = 20000
	}

	run := func(kind systems.Kind, busy bool) (lat *stats.Latency, err error) {
		sys, err := deploy(o, kind, o.layout(1), busy, nil)
		if err != nil {
			return nil, err
		}
		defer sys.Env.Shutdown()
		err = runClients(sys, "bench", 1, 1200*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) (err error) {
			lat, err = workload.LatencyBench(p, c, "/lat", nOps, 16<<10, o.Seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("table3: %v (busy=%v): %w", kind, busy, err)
		}
		return lat, nil
	}

	res := &Result{
		Name:   "table3",
		Title:  "write+fsync latency (us)",
		Header: []string{"system", "idle avg", "idle p99", "idle p99.9", "busy avg", "busy p99", "busy p99.9"},
	}
	for _, kind := range []systems.Kind{systems.Assise, systems.AssiseHyperloop, systems.LineFS} {
		idle, err := run(kind, false)
		if err != nil {
			return nil, err
		}
		busy, err := run(kind, true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			kind.String(),
			us(idle.Mean()), us(idle.Percentile(99)), us(idle.Percentile(99.9)),
			us(busy.Mean()), us(busy.Percentile(99)), us(busy.Percentile(99.9)),
		})
	}
	res.Notes = append(res.Notes,
		"paper: Assise 76/101/126 idle but 323/7115/8331 busy; Hyperloop stable avg with ms-scale p99.9 both ways; LineFS ~149us flat")
	return res, nil
}
