package workload

import (
	"fmt"
	"math/rand"
	"time"

	"linefs/internal/dfs"
	"linefs/internal/sim"
	"linefs/internal/stats"
)

// FilebenchProfile selects a Filebench personality (§5.3).
type FilebenchProfile uint8

// Profiles.
const (
	// Fileserver: 128 KB average files, write:read 2:1, no fsync.
	Fileserver FilebenchProfile = iota
	// Varmail: 16 KB average files, write:read 1:1, fsync after each
	// append (mail-server write-ahead semantics), frequent open().
	Varmail
)

func (f FilebenchProfile) String() string {
	if f == Varmail {
		return "varmail"
	}
	return "fileserver"
}

// FilebenchConfig parameterizes a run.
type FilebenchConfig struct {
	Profile FilebenchProfile
	// Files is the working set (the paper uses 10K; scale down for quick
	// runs).
	Files int
	// MeanFileSize overrides the profile default when nonzero.
	MeanFileSize int
	// Ops is the number of composite operations to run.
	Ops  int
	Dir  string
	Seed int64
	// AppendSize is the per-append IO (profile default when 0).
	AppendSize int
}

// FilebenchResult reports a run's outcome.
type FilebenchResult struct {
	Ops     int64
	Elapsed time.Duration
	// OpsPerSec is the composite operation rate (the figure 8b metric).
	OpsPerSec float64
}

// Filebench runs a profile over the client. If series is non-nil each
// completed composite op is recorded into it (for Figure 10's throughput
// timeline).
func Filebench(p *sim.Proc, c *dfs.Client, cfg FilebenchConfig, series *stats.TimeSeries) (*FilebenchResult, error) {
	mean := cfg.MeanFileSize
	app := cfg.AppendSize
	switch cfg.Profile {
	case Varmail:
		if mean == 0 {
			mean = 16 << 10
		}
		if app == 0 {
			app = 8 << 10
		}
	default:
		if mean == 0 {
			mean = 128 << 10
		}
		if app == 0 {
			app = 16 << 10
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if _, _, err := c.Stat(p, cfg.Dir); err != nil {
		if err := c.Mkdir(p, cfg.Dir); err != nil {
			return nil, err
		}
	}

	name := func(i int) string { return fmt.Sprintf("%s/f%05d", cfg.Dir, i) }
	sizes := make([]int, cfg.Files)
	// Pre-create the working set (sizes range up to 1.5x the mean).
	wbuf := make([]byte, 2*mean)
	rng.Read(wbuf)
	for i := 0; i < cfg.Files; i++ {
		fd, err := c.Create(p, name(i))
		if err != nil {
			return nil, err
		}
		sz := mean/2 + rng.Intn(mean)
		if _, err := c.WriteAt(p, fd, 0, wbuf[:sz]); err != nil {
			return nil, err
		}
		sizes[i] = sz
		c.Close(p, fd)
	}

	start := p.Now()
	var done int64
	rbuf := make([]byte, mean*2)
	abuf := make([]byte, app)
	rng.Read(abuf)
	next := cfg.Files

	for op := 0; op < cfg.Ops; op++ {
		i := rng.Intn(cfg.Files)
		switch cfg.Profile {
		case Varmail:
			// The classic varmail flow of four ops: delete+recreate a
			// mailbox with fsync, append-and-fsync (new mail), read whole
			// file, read another whole file.
			switch op % 4 {
			case 0:
				if err := c.Unlink(p, name(i)); err != nil {
					return nil, err
				}
				fd, err := c.Create(p, name(i))
				if err != nil {
					return nil, err
				}
				sz := mean/2 + rng.Intn(mean)
				if sz > len(wbuf) {
					sz = len(wbuf)
				}
				c.WriteAt(p, fd, 0, wbuf[:sz])
				if err := c.Fsync(p, fd); err != nil {
					return nil, err
				}
				sizes[i] = sz
				c.Close(p, fd)
			case 1:
				fd, err := c.Open(p, name(i), true)
				if err != nil {
					return nil, err
				}
				c.WriteAt(p, fd, uint64(sizes[i]), abuf)
				sizes[i] += app
				if err := c.Fsync(p, fd); err != nil {
					return nil, err
				}
				c.Close(p, fd)
			default:
				fd, err := c.Open(p, name(i), false)
				if err != nil {
					return nil, err
				}
				if sizes[i] > len(rbuf) {
					rbuf = make([]byte, 2*sizes[i])
				}
				c.ReadAt(p, fd, 0, rbuf[:sizes[i]])
				c.Close(p, fd)
			}
		default: // Fileserver: create+write / append / whole-file read /
			// delete mix at a 2:1 write:read ratio, no fsync.
			switch op % 4 {
			case 0:
				nm := fmt.Sprintf("%s/f%05d", cfg.Dir, next)
				next++
				fd, err := c.Create(p, nm)
				if err != nil {
					return nil, err
				}
				sz := mean/2 + rng.Intn(mean)
				if sz > len(wbuf) {
					sz = len(wbuf)
				}
				c.WriteAt(p, fd, 0, wbuf[:sz])
				c.Close(p, fd)
			case 1:
				fd, err := c.Open(p, name(i), true)
				if err != nil {
					return nil, err
				}
				c.WriteAt(p, fd, uint64(sizes[i]), abuf)
				sizes[i] += app
				c.Close(p, fd)
			case 2:
				fd, err := c.Open(p, name(i), false)
				if err != nil {
					return nil, err
				}
				if sizes[i] > len(rbuf) {
					rbuf = make([]byte, 2*sizes[i])
				}
				c.ReadAt(p, fd, 0, rbuf[:sizes[i]])
				c.Close(p, fd)
			case 3:
				// Delete and recreate to keep the working set stable.
				if err := c.Unlink(p, name(i)); err != nil {
					return nil, err
				}
				fd, err := c.Create(p, name(i))
				if err != nil {
					return nil, err
				}
				sz := mean/2 + rng.Intn(mean)
				if sz > len(wbuf) {
					sz = len(wbuf)
				}
				c.WriteAt(p, fd, 0, wbuf[:sz])
				sizes[i] = sz
				c.Close(p, fd)
			}
		}
		done++
		if series != nil {
			series.Add(time.Duration(p.Now()), 1)
		}
	}
	elapsed := time.Duration(p.Now() - start)
	res := &FilebenchResult{Ops: done, Elapsed: elapsed}
	if elapsed > 0 {
		res.OpsPerSec = float64(done) / elapsed.Seconds()
	}
	return res, nil
}
