package main

import (
	"fmt"
	"time"
)

// ioBlocks is the 16 KiB I/O unit of the streaming and mixed workloads.
const ioBlocks = 4

// workload is one named load. All load is closed loop: each of the clients
// issues its next call when the previous one returns. setup runs in the
// set-up phase (after attach), measure in the measured phase.
type workload struct {
	name string
	why  string // one line: the frozen load, then why it exists (BENCHMARK.json has the same text)

	assise, compress bool
	clients          int
	setup            func(c *cli)
	measure          func(c *cli)
}

var workloads = []*workload{
	{
		name:    "seqwrite",
		why:     "LineFS, 2 clients x 96 MiB of 16 KiB sequential WriteAt, one fsync: paced by core fetch/validate/publish/transfer, hw PM/PCIe and rdma bulk; fresh PM pages make it page-fault bound on the host",
		clients: 2,
		setup:   func(c *cli) { seqSetup(c, fmt.Sprintf("/w%d", c.id)) },
		measure: func(c *cli) { seqMeasure(c, c.r.sc.seqBytes) },
	},
	{
		name:    "syncwrite",
		why:     "LineFS, 1 client doing 4096 x (4 KiB WriteAt + fsync) beside 1 bulk client at ~0.5 GB/s: one low-latency chain round trip per op, event-dense, so sim kernel cost and low-lat/bulk separation show",
		clients: 2,
		setup:   syncSetup,
		measure: syncMeasure,
	},
	{
		name:    "readmix",
		why:     "LineFS, 1 client, 200000 ops 7:1 16 KiB ReadAt : 4-16 KiB WriteAt at seeded offsets of a published 64 MiB file, fsync per 64 writes: read and log-merge paths while writes arrive; replication idle",
		clients: 1,
		setup:   readSetup,
		measure: readMeasure,
	},
	{
		name:     "zipwrite",
		why:      "seqwrite with Compress=true, 2 clients x 30 MiB of ~50% LZW-compressible records: compress and NIC cores do the work, bottleneck moves from wire to NIC CPU; only workload under 2 wire bytes/user byte",
		compress: true,
		clients:  2,
		setup:    func(c *cli) { seqSetup(c, fmt.Sprintf("/w%d", c.id)) },
		measure:  func(c *cli) { seqMeasure(c, c.r.sc.zipBytes) },
	},
	{
		name:    "mailmix",
		why:     "LineFS, 2 clients x 8000 varmail composites over 400 files of 16 KiB mean each: the metadata path (lease, fs dir/inode/alloc, coalescing of dead data, control RPCs); few bytes, many ops",
		clients: 2,
		setup:   mailSetup,
		measure: mailMeasure,
	},
	{
		name:    "assise_seqwrite",
		why:     "seqwrite's exact load on Assise (pessimistic): the baseline on the shared sim/hw/fs/rdma/dfs layers, no core/pipeline, so a shared-layer change that costs it shows; gives the host-CPU contrast",
		assise:  true,
		clients: 2,
		setup:   func(c *cli) { seqSetup(c, fmt.Sprintf("/w%d", c.id)) },
		measure: func(c *cli) { seqMeasure(c, c.r.sc.seqBytes) },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stagger is a client's seeded start offset: the arrival phase between
// clients is an input like any other.
func (c *cli) stagger() { c.pace(time.Duration(c.rng.Intn(200_000))) }

// ---- seqwrite, zipwrite, assise_seqwrite ----

func seqSetup(c *cli, path string) {
	c.file = c.r.newFile(path)
	var err error
	if c.fd, err = c.create(c.file.path); err != nil {
		return
	}
	c.file.live = true
	// Set-up ends with everything published: the measured phase starts
	// from empty logs.
	_ = c.fsync(c.fd)
}

// seqMeasure streams the file. Its length is seeded within the last 128 KiB
// so that the tail left for the final fsync differs from seed to seed.
func seqMeasure(c *cli, bytes int64) {
	c.stagger()
	end := int(bytes/blockSize) - c.rng.Intn(8)*ioBlocks
	for blk := 0; blk < end; blk += ioBlocks {
		if c.write(c.fd, c.file, blk, ioBlocks) != nil {
			return
		}
		c.ops++
	}
	if c.fsync(c.fd) != nil {
		return
	}
	_ = c.close(c.fd)
}

// ---- syncwrite ----

// bulkRate is the bulk co-writer's pacing target in bytes per virtual
// second. Without the co-writer every write+fsync takes exactly the same
// virtual time and p99 equals p50.
const bulkRate = 0.5e9

func syncSetup(c *cli) {
	name := "/lat"
	if c.id == 1 {
		name = "/ring"
		c.latency = false
	}
	seqSetup(c, name)
}

func syncMeasure(c *cli) {
	c.stagger()
	if c.id == 0 {
		defer func() { c.r.stop = true }()
		for i := 0; i < c.r.sc.syncOps; i++ {
			if c.write(c.fd, c.file, i, 1) != nil || c.fsync(c.fd) != nil {
				return
			}
			c.ops++
			c.pace(time.Duration(c.rng.Intn(10_000))) // think time: decouples the op phase from the bursts
		}
		_ = c.close(c.fd)
		return
	}
	burst := c.r.sc.chunk / blockSize
	ring := int(c.r.sc.ringBytes / blockSize)
	period := time.Duration(float64(c.r.sc.chunk) / bulkRate * float64(time.Second))
	next := time.Duration(c.p.Now())
	for blk := 0; !c.r.stop; {
		for i := 0; i < burst && !c.r.stop; i += ioBlocks {
			if c.write(c.fd, c.file, blk, ioBlocks) != nil {
				return
			}
			c.ops++
			blk = (blk + ioBlocks) % ring
		}
		next += period*19/20 + time.Duration(c.rng.Int63n(int64(period/10))) // +-5 % jitter
		c.pace(next - time.Duration(c.p.Now()))
	}
	if c.fsync(c.fd) != nil {
		return
	}
	_ = c.close(c.fd)
}

// ---- readmix ----

func readSetup(c *cli) {
	seqSetup(c, "/data")
	for blk := 0; blk < int(c.r.sc.readFile/blockSize); blk += ioBlocks {
		if c.write(c.fd, c.file, blk, ioBlocks) != nil {
			return
		}
	}
	_ = c.fsync(c.fd)
}

// readMeasure mixes reads and writes 7:1 at seeded 16 KiB-aligned offsets.
// Reads are 16 KiB; writes are 4 to 16 KiB (seeded), so the bytes an fsync
// has to replicate, and with them its latency, differ from seed to seed.
func readMeasure(c *cli) {
	c.stagger()
	ios := int(c.r.sc.readFile / blockSize / ioBlocks)
	writes := 0
	for i := 0; i < c.r.sc.readOps; i++ {
		blk := c.rng.Intn(ios) * ioBlocks
		if i%8 == 7 {
			if c.write(c.fd, c.file, blk, 1+c.rng.Intn(ioBlocks)) != nil {
				return
			}
			if writes++; writes%64 == 0 && c.fsync(c.fd) != nil {
				return
			}
		} else if c.readCheck(c.fd, c.file, blk, ioBlocks) != nil {
			return
		}
		c.ops++
	}
	if c.fsync(c.fd) != nil {
		return
	}
	_ = c.close(c.fd)
}

// ---- mailmix ----

// mailBlocks draws a mailbox size of 8 to 24 KiB (mean 16 KiB).
func (c *cli) mailBlocks() int { return 2 + c.rng.Intn(5) }

func mailSetup(c *cli) {
	dir := fmt.Sprintf("/m%d", c.id)
	if c.mkdir(dir) != nil {
		return
	}
	for i := 0; i < c.r.sc.mailFiles; i++ {
		f := c.r.newFile(fmt.Sprintf("%s/f%05d", dir, i))
		c.mail = append(c.mail, f)
		fd, err := c.create(f.path)
		if err != nil {
			return
		}
		f.live = true
		if c.write(fd, f, 0, c.mailBlocks()) != nil {
			return
		}
		if i == c.r.sc.mailFiles-1 && c.fsync(fd) != nil {
			return
		}
		if c.close(fd) != nil {
			return
		}
	}
}

// mailMeasure runs the varmail flow: delete+recreate a mailbox with fsync,
// append new mail with fsync, then read two whole mailboxes.
func mailMeasure(c *cli) {
	c.stagger()
	for op := 0; op < c.r.sc.mailOps; op++ {
		f := c.mail[c.rng.Intn(len(c.mail))]
		var fd int
		var err error
		switch op % 4 {
		case 0:
			if c.unlink(f) != nil {
				return
			}
			if fd, err = c.create(f.path); err != nil {
				return
			}
			f.live = true
			if c.write(fd, f, 0, c.mailBlocks()) != nil || c.fsync(fd) != nil {
				return
			}
		case 1:
			if fd, err = c.open(f.path, true); err != nil {
				return
			}
			if c.write(fd, f, f.blocks, 2) != nil || c.fsync(fd) != nil {
				return
			}
		default:
			if fd, err = c.open(f.path, false); err != nil {
				return
			}
			if c.readCheck(fd, f, 0, f.blocks) != nil {
				return
			}
		}
		if c.close(fd) != nil {
			return
		}
		c.ops++
	}
}
