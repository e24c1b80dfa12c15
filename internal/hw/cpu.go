// Package hw models the hardware substrates LineFS runs on: host and
// SmartNIC CPUs (contended cores with priority time-slicing), persistent
// memory with crash semantics, PCIe and network links with latency and
// shared bandwidth, and an I/OAT-style DMA engine.
//
// All cost charging happens in virtual time on the calling simulation
// process; data movement operates on real bytes so file-system logic above
// this layer is exercised for real.
package hw

import (
	"math/rand"
	"time"

	"linefs/internal/sim"
	"linefs/internal/stats"
)

// CPU models a pool of cores. Work is expressed in reference-core time
// (the time the work would take on a 1.0-speed host core); wimpier cores
// take proportionally longer. Contended cores are time-sliced round-robin
// with strict priority (higher wins).
type CPU struct {
	Env   *sim.Env
	Name  string
	Cores *sim.Resource
	// Speed is the core speed relative to the reference host core.
	Speed float64
	// Slice is the scheduling quantum for round-robin sharing.
	Slice time.Duration
	// Util accumulates busy core-time per workload tag.
	Util *stats.Utilization

	// Jitter, when set, models OS wakeup/dispatch overheads for work
	// arriving while every core is busy: context-switch costs, scheduler
	// decisions, and cache pollution inflate dispatch latency, with a
	// heavy tail (the paper's §3.3.2 motivation for offloading replication
	// off contended hosts). Sampled once per Compute call that finds the
	// CPU saturated.
	Jitter *JitterModel
}

// JitterModel parameterizes dispatch-delay sampling under saturation.
type JitterModel struct {
	// Mean is the mean of the common-case exponential dispatch delay.
	Mean time.Duration
	// TailProb is the probability of a slow-path delay (priority
	// inversion, cache refill storm).
	TailProb float64
	// TailMean is the mean of the slow-path exponential delay.
	TailMean time.Duration

	rng *rand.Rand
}

// NewJitterModel creates a deterministic jitter sampler.
func NewJitterModel(seed int64, mean time.Duration, tailProb float64, tailMean time.Duration) *JitterModel {
	return &JitterModel{Mean: mean, TailProb: tailProb, TailMean: tailMean, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws one dispatch delay.
func (j *JitterModel) Sample() time.Duration {
	mean := j.Mean
	if j.rng.Float64() < j.TailProb {
		mean = j.TailMean
	}
	return time.Duration(j.rng.ExpFloat64() * float64(mean))
}

// NewCPU creates a CPU with the given core count and relative speed.
func NewCPU(env *sim.Env, name string, cores int, speed float64) *CPU {
	return &CPU{
		Env:   env,
		Name:  name,
		Cores: sim.NewResource(env, cores),
		Speed: speed,
		Slice: 100 * time.Microsecond,
		Util:  stats.NewUtilization(),
	}
}

// NumCores returns the core count.
func (c *CPU) NumCores() int { return c.Cores.Cap() }

// Scale converts reference-core work into this CPU's execution time.
func (c *CPU) Scale(work time.Duration) time.Duration {
	return time.Duration(float64(work) / c.Speed)
}

// Compute executes work (reference-core time) on one core, charging busy
// time to tag. The core is shared round-robin with equal-or-higher-priority
// contenders at Slice granularity.
//
//linefs:hotpath
func (c *CPU) Compute(p *sim.Proc, work time.Duration, prio int, tag string) {
	remaining := c.Scale(work)
	if remaining <= 0 {
		return
	}
	if c.Jitter != nil && c.Cores.InUse() >= c.Cores.Cap() {
		p.Sleep(c.Jitter.Sample())
	}
	c.Cores.Acquire(p, prio)
	held := true
	defer c.releaseHeld(&held)
	for remaining > 0 {
		run := c.Slice
		if remaining < run {
			run = remaining
		}
		p.Sleep(run)
		c.Util.Add(tag, run)
		remaining -= run
		if remaining > 0 {
			// Round-robin among equal-or-higher-priority contenders:
			// yield the core only if such a waiter is queued.
			if wp, ok := c.Cores.MaxWaiterPrio(); ok && wp >= prio {
				c.Cores.Release()
				held = false
				c.Cores.Acquire(p, prio)
				held = true
			}
		}
	}
}

// releaseHeld gives back the core Compute holds, if it holds one, when
// Compute returns or its process is killed.
func (c *CPU) releaseHeld(held *bool) {
	if *held {
		c.Cores.Release()
	}
}

// Pin dedicates one core to the calling process (e.g. a busy-polling RDMA
// thread) until Unpin. Work on it is charged through the returned handle's
// Run.
func (c *CPU) Pin(p *sim.Proc, prio int) *PinnedCore {
	c.Cores.Acquire(p, prio)
	return &PinnedCore{cpu: c}
}

// PinnedCore is a core held exclusively by one process.
type PinnedCore struct {
	cpu      *CPU
	released bool
}

// Run executes work on the pinned core without rescheduling.
func (pc *PinnedCore) Run(p *sim.Proc, work time.Duration, tag string) {
	d := pc.cpu.Scale(work)
	p.Sleep(d)
	pc.cpu.Util.Add(tag, d)
}

// Unpin releases the core.
func (pc *PinnedCore) Unpin() {
	if !pc.released {
		pc.released = true
		pc.cpu.Cores.Release()
	}
}
