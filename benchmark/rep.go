package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"linefs/internal/dfs"
	"linefs/internal/fs"
	"linefs/internal/sim"
)

// opKind names the dfs.Client calls the benchmark issues; each call is one
// checked, counted operation and (when tracing) one span.
type opKind uint8

const (
	opAttach opKind = iota
	opMkdir
	opCreate
	opOpen
	opClose
	opUnlink
	opWrite
	opRead
	opFsync
	opPace // not a dfs call: a closed-loop client's think time
	nOpKinds
)

var opNames = [nOpKinds]string{"attach", "mkdir", "create", "open", "close", "unlink", "write", "read", "fsync", "pace"}

// Virtual-time deadlines per phase. A wedged system (for instance a full
// volume: heartbeats keep the event loop alive for ever) ends the phase
// here, and whatever is still outstanding counts as failed.
const (
	setupLimit   = 120 * time.Second
	measureLimit = 300 * time.Second
	drainLimit   = 60 * time.Second
)

// rep is one repetition of one workload: a fresh cluster, the set-up,
// measured, drain and verify phases, and everything they recorded.
type rep struct {
	w    *workload
	sc   scale
	seed int64
	sys  *system
	gen  *generator
	rec  *recorder // nil: tracing off

	clients []*cli
	files   []*fileModel
	notes   []string // first few failure descriptions
	stop    bool     // syncwrite: latency client is done

	// corruptFrom, when > 0, flips one payload byte of every measured write
	// from the n-th on, after the model recorded it (tests use it to prove
	// that verification notices).
	corruptFrom int64
	writes      int64

	verifyAttempted, verifyFailed int64
}

func (r *rep) notef(format string, args ...any) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *rep) newFile(path string) *fileModel {
	f := &fileModel{id: uint32(len(r.files) + 1), path: path}
	r.files = append(r.files, f)
	return f
}

// cli is one closed-loop client: it issues its next call only when the
// previous one returned.
type cli struct {
	r   *rep
	id  int
	c   *dfs.Client
	p   *sim.Proc
	rng *rand.Rand

	span     int32 // this client's span in the current phase
	opSeq    int64
	inflight bool

	attempted, failed int64
	ops               int64 // workload-level operations completed (measured phase)
	written, read     int64 // user bytes (measured phase)

	simLat  [nOpKinds][]int64
	hostLat [nOpKinds][]int64 // traced only
	// fsyncLat holds write+fsync latencies: the Fsync call plus the WriteAt
	// before it. Only clients marked latency contribute.
	fsyncLat  []int64
	latency   bool
	lastWrite int64

	fd   int
	file *fileModel
	mail []*fileModel

	wbuf, rbuf []byte
}

// do runs one call, checked and counted.
func (c *cli) do(k opKind, f func() error) error {
	if k != opPace {
		c.attempted++
	}
	c.opSeq++
	c.inflight = true
	rec := c.r.rec
	s0 := int64(c.p.Now())
	var h0 int64
	if rec != nil {
		h0 = rec.host()
	}
	err := f()
	s1 := int64(c.p.Now())
	c.inflight = false
	c.simLat[k] = append(c.simLat[k], s1-s0)
	if rec != nil {
		h1 := rec.host()
		c.hostLat[k] = append(c.hostLat[k], h1-h0)
		layer := "dfs"
		if k == opPace {
			layer = "benchmark"
		}
		rec.add(span{Parent: c.span, Op: c.opSeq, Layer: layer, Name: opNames[k],
			SimStart: s0, SimEnd: s1, HostStart: h0, HostEnd: h1})
	}
	if err != nil {
		c.failed++
		c.r.notef("client %d %s: %v", c.id, opNames[k], err)
	}
	return err
}

func (c *cli) mkdir(path string) error {
	return c.do(opMkdir, func() error { return c.c.Mkdir(c.p, path) })
}

func (c *cli) create(path string) (fd int, err error) {
	err = c.do(opCreate, func() (e error) { fd, e = c.c.Create(c.p, path); return })
	return fd, err
}

func (c *cli) open(path string, write bool) (fd int, err error) {
	err = c.do(opOpen, func() (e error) { fd, e = c.c.Open(c.p, path, write); return })
	return fd, err
}

func (c *cli) close(fd int) error {
	return c.do(opClose, func() error { return c.c.Close(c.p, fd) })
}

func (c *cli) unlink(f *fileModel) error {
	err := c.do(opUnlink, func() error { return c.c.Unlink(c.p, f.path) })
	f.blocks, f.live = 0, false
	return err
}

// pace is the client's think time. It is a span so that the trace accounts
// for all of the client's virtual time.
func (c *cli) pace(d time.Duration) {
	if d <= 0 {
		return
	}
	_ = c.do(opPace, func() error { c.p.Sleep(d); return nil })
}

// write stamps and writes n blocks of f starting at block blk.
func (c *cli) write(fd int, f *fileModel, blk, n int) error {
	if cap(c.wbuf) < n*blockSize {
		c.wbuf = make([]byte, n*blockSize)
	}
	buf := c.wbuf[:n*blockSize]
	f.bump(blk, n)
	for i := 0; i < n; i++ {
		c.r.gen.fill(buf[i*blockSize:(i+1)*blockSize], f.id, uint64(blk+i), f.ver[blk+i])
	}
	c.r.writes++
	if c.r.corruptFrom > 0 && c.r.writes >= c.r.corruptFrom {
		buf[stampSize+1] ^= 0xff
	}
	err := c.do(opWrite, func() error {
		got, err := c.c.WriteAt(c.p, fd, uint64(blk)*blockSize, buf)
		if err == nil && got != len(buf) {
			err = fmt.Errorf("short write %d of %d", got, len(buf))
		}
		return err
	})
	c.lastWrite = c.simLat[opWrite][len(c.simLat[opWrite])-1]
	if err == nil {
		c.written += int64(len(buf))
	}
	return err
}

// readCheck reads n blocks of f at blk and verifies every stamp and body
// against the model. A short read or a mismatch fails the operation.
func (c *cli) readCheck(fd int, f *fileModel, blk, n int) error {
	if cap(c.rbuf) < n*blockSize {
		c.rbuf = make([]byte, n*blockSize)
	}
	buf := c.rbuf[:n*blockSize]
	want := n
	if blk+want > f.blocks {
		want = f.blocks - blk
	}
	err := c.do(opRead, func() error {
		got, err := c.c.ReadAt(c.p, fd, uint64(blk)*blockSize, buf)
		if err == nil && got != want*blockSize {
			err = fmt.Errorf("short read %d of %d at block %d of %s", got, want*blockSize, blk, f.path)
		}
		return err
	})
	if err != nil {
		return err
	}
	for i := 0; i < want; i++ {
		if !c.r.gen.check(buf[i*blockSize:(i+1)*blockSize], f.id, uint64(blk+i), f.ver[blk+i]) {
			c.failed++
			c.r.notef("client %d read: %s block %d is not version %d", c.id, f.path, blk+i, f.ver[blk+i])
			return errors.New("stamp mismatch")
		}
	}
	c.read += int64(want * blockSize)
	return nil
}

func (c *cli) fsync(fd int) error {
	err := c.do(opFsync, func() error { return c.c.Fsync(c.p, fd) })
	if c.latency {
		c.fsyncLat = append(c.fsyncLat, c.lastWrite+c.simLat[opFsync][len(c.simLat[opFsync])-1])
	}
	return err
}

// resetStats drops what the set-up phase recorded so that latencies and
// byte counts cover the measured phase only. Attempt and failure counts
// keep running: a failed set-up operation is still a failed operation.
func (c *cli) resetStats() {
	for k := range c.simLat {
		if opKind(k) != opAttach {
			c.simLat[k] = c.simLat[k][:0]
			c.hostLat[k] = c.hostLat[k][:0]
		}
	}
	c.fsyncLat = c.fsyncLat[:0]
	c.ops, c.written, c.read = 0, 0, 0
}

// runProcs runs fn in n simulation processes and drives the simulation
// until all have returned or limit of virtual time has passed. It reports
// whether all returned.
func (r *rep) runProcs(phase string, limit time.Duration, n int, fn func(p *sim.Proc, i int, root int32)) bool {
	env := r.sys.env
	root := int32(-1)
	if r.rec != nil {
		root = r.rec.open(-1, -1, "benchmark", phase, int64(env.Now()))
	}
	procs := make([]*sim.Proc, n)
	for i := range procs {
		i := i
		procs[i] = env.Go(fmt.Sprintf("bench/%s/%d", phase, i), func(p *sim.Proc) { fn(p, i, root) })
	}
	all := false
	env.Go("bench/"+phase+"/wait", func(p *sim.Proc) {
		deadline := p.Now() + sim.Time(limit)
		all = true
		for _, pr := range procs {
			if _, ok := p.WaitTimeout(pr.Done, time.Duration(deadline-p.Now())); !ok {
				all = false
				break
			}
		}
		env.Stop()
	})
	env.Run()
	if r.rec != nil {
		r.rec.close(root, int64(env.Now()))
	}
	if !all {
		for _, c := range r.clients {
			if c != nil && c.inflight {
				c.failed++
			}
		}
		r.notef("%s: virtual deadline of %v passed with operations outstanding", phase, limit)
	}
	return all
}

// clientPhase runs body once per client, each in its own process, under a
// per-client span that parents the client's call spans.
func (r *rep) clientPhase(phase string, limit time.Duration, body func(c *cli)) bool {
	return r.runProcs(phase, limit, len(r.clients), func(p *sim.Proc, i int, root int32) {
		c := r.clients[i]
		c.p = p
		if r.rec != nil {
			c.span = r.rec.open(root, -1, "benchmark", fmt.Sprintf("client%d", i), int64(p.Now()))
			defer func() { r.rec.close(c.span, int64(p.Now())) }()
		}
		body(c)
	})
}

// setup attaches the clients and runs the workload's set-up body, then
// waits until everything written so far is published on every node.
func (r *rep) setup() bool {
	r.clients = make([]*cli, r.w.clients)
	for i := range r.clients {
		r.clients[i] = &cli{r: r, id: i, rng: rand.New(rand.NewSource(r.seed*1000003 + int64(i))), latency: true}
	}
	ok := r.clientPhase("setup", setupLimit, func(c *cli) {
		err := c.do(opAttach, func() (e error) { c.c, e = r.sys.attach(c.p); return })
		if err != nil {
			return
		}
		r.w.setup(c)
	})
	if !ok {
		return false
	}
	for _, c := range r.clients {
		if c.c == nil {
			return false
		}
	}
	return r.drain("prefill")
}

// drainPoll is longer than the 50 ms timer on which an Assise replica
// lazily digests its mirror log, so two quiet polls mean nothing is pending.
const drainPoll = 100 * time.Millisecond

// drain waits (in virtual time) until every client log is empty and no
// node has published anything for two consecutive polls.
func (r *rep) drain(phase string) bool {
	return r.runProcs(phase, drainLimit, 1, func(p *sim.Proc, _ int, _ int32) {
		prev := r.sys.snapshot().published
		for stable := 0; stable < 2; {
			p.Sleep(drainPoll)
			cur := r.sys.snapshot().published
			empty := true
			for _, c := range r.clients {
				if c.c.Log().Used() != 0 {
					empty = false
				}
			}
			if empty && cur == prev {
				stable++
			} else {
				stable = 0
			}
			prev = cur
		}
	})
}

// verify reads every live file back from the public area of all three
// nodes, outside the simulation, and compares every block with the model:
// what a client was told is durable must be on every replica.
func (r *rep) verify() {
	var root int32 = -1
	if r.rec != nil {
		now := int64(r.sys.env.Now())
		root = r.rec.open(-1, -1, "benchmark", "verify", now)
		defer func() { r.rec.close(root, now) }()
	}
	buf := make([]byte, 64*blockSize)
	for node, vol := range r.sys.vols {
		ctx := fs.NoCostCtx(r.sys.machines[node].PM)
		for _, f := range r.files {
			if !f.live {
				continue
			}
			r.verifyAttempted++
			if err := r.verifyFile(ctx, vol, f, buf); err != nil {
				r.verifyFailed++
				r.notef("verify node %d: %v", node, err)
			}
		}
	}
}

func (r *rep) verifyFile(ctx *fs.Ctx, vol *fs.Vol, f *fileModel, buf []byte) error {
	ino, err := vol.Resolve(ctx, f.path)
	if err != nil {
		return fmt.Errorf("%s: %w", f.path, err)
	}
	in, err := vol.ReadInode(ctx, ino)
	if err != nil {
		return fmt.Errorf("%s: %w", f.path, err)
	}
	if in.Size != uint64(f.blocks)*blockSize {
		return fmt.Errorf("%s: size %d, want %d", f.path, in.Size, f.blocks*blockSize)
	}
	for blk := 0; blk < f.blocks; blk += len(buf) / blockSize {
		n := len(buf) / blockSize
		if blk+n > f.blocks {
			n = f.blocks - blk
		}
		got, err := vol.ReadFile(ctx, ino, uint64(blk)*blockSize, buf[:n*blockSize])
		if err != nil || got != n*blockSize {
			return fmt.Errorf("%s: read %d bytes at block %d: %v", f.path, got, blk, err)
		}
		for i := 0; i < n; i++ {
			if !r.gen.check(buf[i*blockSize:(i+1)*blockSize], f.id, uint64(blk+i), f.ver[blk+i]) {
				return fmt.Errorf("%s: block %d is not version %d", f.path, blk+i, f.ver[blk+i])
			}
		}
	}
	return nil
}
