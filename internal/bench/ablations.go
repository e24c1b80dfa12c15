package bench

import (
	"bytes"
	"fmt"
	"time"

	"linefs/internal/core"
	"linefs/internal/dfs"
	"linefs/internal/sim"
	"linefs/internal/systems"
	"linefs/internal/workload"
)

// Ablations are experiments beyond the paper's figures that isolate the
// design choices DESIGN.md calls out: the 4 MB chunk size, the coalescing
// stage, the last-hop direct write, and the dynamic pipeline scaling.
func Ablations() []Experiment {
	return []Experiment{
		{"abl-chunk", "Ablation: pipeline chunk size vs write throughput", AblChunkSize},
		{"abl-coalesce", "Ablation: coalescing stage vs published bytes", AblCoalesce},
		{"abl-direct", "Ablation: last-hop direct write vs fsync latency", AblDirectWrite},
		{"abl-scaling", "Ablation: dynamic stage scaling under compression", AblScaling},
	}
}

// AblChunkSize sweeps the pipeline unit: tiny chunks pay per-chunk
// overheads (RPCs, PCIe latency), huge chunks lose pipelining within the
// log window — the paper's 4 MB sits on the plateau.
func AblChunkSize(o Options) (*Result, error) {
	res := &Result{
		Name:   "abl-chunk",
		Title:  "write throughput vs chunk size (2 clients, idle)",
		Header: []string{"chunk", "GB/s"},
	}
	for _, cs := range []int{256 << 10, 1 << 20, 4 << 20, 8 << 20} {
		l := o.layout(2)
		l.ChunkSize = cs
		tput, err := writeTput(o, systems.LineFS, l, false)
		if err != nil {
			return nil, fmt.Errorf("abl-chunk %d: %w", cs, err)
		}
		res.Rows = append(res.Rows, []string{fmt.Sprintf("%dKB", cs>>10), gbps(tput)})
	}
	res.Notes = append(res.Notes, "expect a plateau around the paper's 4 MB choice")
	return res, nil
}

// AblCoalesce measures write amplification on a temporarily-durable-file
// workload (create, write, delete — §3.3.1's target pattern) with the
// coalescing stage on and off.
func AblCoalesce(o Options) (*Result, error) {
	run := func(disable bool) (pub, coalesced int64, err error) {
		sys, err := newLineFS(o, o.layout(1), func(c *core.Config) { c.DisableCoalesce = disable })
		if err != nil {
			return 0, 0, err
		}
		defer sys.Env.Shutdown()
		err = runClients(sys, "bench", 1, 600*time.Second, func(p *sim.Proc, a *dfs.Client, _ int) error {
			payload := bytes.Repeat([]byte{0xCC}, 64<<10)
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("/tmp%03d", i)
				fd, err := a.Create(p, name)
				if err != nil {
					return err
				}
				if _, err := a.WriteAt(p, fd, 0, payload); err != nil {
					return err
				}
				a.Close(p, fd)
				// Half the files are temporary: deleted before publication.
				if i%2 == 0 {
					if err := a.Unlink(p, name); err != nil {
						return err
					}
				}
			}
			if err := a.Mkdir(p, "/keepalive"); err != nil {
				return err
			}
			kfd, err := a.Create(p, "/keepalive/f")
			if err != nil {
				return err
			}
			if err := a.Fsync(p, kfd); err != nil {
				return err
			}
			p.Sleep(2 * time.Second)
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("abl-coalesce: %w", err)
		}
		nic := sys.LineFS.NICs[0]
		return nic.PubBytes, nic.CoalescedBytes, nil
	}
	on, dropped, err := run(false)
	if err != nil {
		return nil, err
	}
	off, _, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "abl-coalesce",
		Title:  "published bytes with and without coalescing (200 files, half temporary)",
		Header: []string{"config", "published MB", "coalesced-away MB"},
		Rows: [][]string{
			{"coalescing on", fmt.Sprintf("%.1f", float64(on)/1e6), fmt.Sprintf("%.1f", float64(dropped)/1e6)},
			{"coalescing off", fmt.Sprintf("%.1f", float64(off)/1e6), "0.0"},
		},
	}
	if off > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("coalescing avoided %.0f%% of publication write amplification",
			100*(1-float64(on)/float64(off))))
	}
	return res, nil
}

// AblDirectWrite compares fsync latency with and without the §3.3.2
// last-hop one-sided write.
func AblDirectWrite(o Options) (*Result, error) {
	run := func(disable bool) (time.Duration, error) {
		sys, err := newLineFS(o, o.layout(1), func(c *core.Config) { c.DisableDirectWrite = disable })
		if err != nil {
			return 0, err
		}
		defer sys.Env.Shutdown()
		var mean time.Duration
		err = runClients(sys, "bench", 1, 600*time.Second, func(p *sim.Proc, c *dfs.Client, _ int) error {
			lat, err := workload.LatencyBench(p, c, "/lat", 1500, 16<<10, o.Seed)
			if err != nil {
				return err
			}
			mean = lat.Mean()
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("abl-direct: %w", err)
		}
		return mean, nil
	}
	withDirect, err := run(false)
	if err != nil {
		return nil, err
	}
	without, err := run(true)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:   "abl-direct",
		Title:  "write+fsync mean latency: last-hop direct write on/off",
		Header: []string{"config", "mean (us)"},
		Rows: [][]string{
			{"direct write (paper)", us(withDirect)},
			{"via NICFS memory", us(without)},
		},
		Notes: []string{"the direct write removes one SmartNIC memory copy from the last hop"},
	}, nil
}

// AblScaling puts a compression-heavy load on the replication pipeline —
// where one wimpy core (CompressBW × NICSpeed = 60 MB/s) is the bottleneck —
// and compares the pipeline, whose compress stage spreads a chunk's sixteen
// sub-blocks over the NIC cores, against LineFS-NotParallel, where one
// thread codes the same sub-blocks back to back.
func AblScaling(o Options) (*Result, error) {
	run := func(kind systems.Kind) (tput float64, peak int, err error) {
		sys, err := deploy(o, kind, o.layout(1), false, func(c *core.Config) { c.Compress = true })
		if err != nil {
			return 0, 0, err
		}
		defer sys.Env.Shutdown()
		err = runClients(sys, "bench", 1, 1200*time.Second, func(p *sim.Proc, a *dfs.Client, _ int) error {
			fd, err := a.Create(p, "/c")
			if err != nil {
				return err
			}
			buf := bytes.Repeat([]byte("abcd0000"), 8<<10) // 64 KB, compressible
			total := 48 << 20
			start := p.Now()
			for off := 0; off < total; off += len(buf) {
				if _, err := a.WriteAt(p, fd, uint64(off), buf); err != nil {
					return err
				}
			}
			if err := a.Fsync(p, fd); err != nil {
				return err
			}
			if el := time.Duration(p.Now() - start); el > 0 {
				tput = float64(total) / el.Seconds()
			}
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("abl-scaling (%v): %w", kind, err)
		}
		return tput, sys.LineFS.NICs[0].CompressPeakWorkers(), nil
	}
	res := &Result{
		Name:   "abl-scaling",
		Title:  "compression-stage throughput: pipeline across the NIC cores vs single thread",
		Header: []string{"config", "MB/s", "peak compress threads"},
		Notes: []string{"a SmartNIC core LZW-codes at 60 MB/s (200 MB/s reference core x 0.30); a 4 MB chunk is 16 sub-blocks " +
			"(17 with its entry headers), which the compress stage codes side by side, one chunk at a time"},
	}
	for _, c := range []struct {
		name string
		kind systems.Kind
	}{
		{"pipeline (sub-blocks across cores)", systems.LineFS},
		{"sequential (one wimpy core)", systems.LineFSNotParallel},
	} {
		tput, peak, err := run(c.kind)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{c.name, mbps(tput), fmt.Sprint(peak)})
	}
	return res, nil
}
