package bench

import (
	"time"

	"linefs/internal/sim"
)

// KernelStats are wall-clock throughput numbers for the DES kernel's hot
// paths, measured on fixed workloads so they are comparable across PRs.
type KernelStats struct {
	// EventsPerSec is raw event-loop throughput: one process sleeping in a
	// tight loop (schedule, heap pop, self-wake per event).
	EventsPerSec float64 `json:"events_per_sec"`
	// HandoffEventsPerSec alternates wakes between two processes, forcing a
	// goroutine handoff per event.
	HandoffEventsPerSec float64 `json:"handoff_events_per_sec"`
	// ResourceGrantsPerSec cycles 8 processes over a 2-unit Resource.
	ResourceGrantsPerSec float64 `json:"resource_grants_per_sec"`
	// QueueOpsPerSec is producer/consumer pairs over a bounded Queue.
	QueueOpsPerSec float64 `json:"queue_ops_per_sec"`
}

// KernelBaseline is the seed kernel's performance (closure-based events,
// container/heap, double channel handoff per block), measured on the same
// workloads immediately before the fast-path rework landed. It is the fixed
// reference point for the speedup column in BENCH_kernel.json.
var KernelBaseline = KernelStats{
	EventsPerSec:         723083,
	HandoffEventsPerSec:  586166,
	ResourceGrantsPerSec: 162628,
	QueueOpsPerSec:       347102,
}

// KernelBench measures current kernel throughput. Each workload runs long
// enough (a few hundred milliseconds) to dominate setup cost.
func KernelBench() KernelStats {
	const events = 2_000_000
	var st KernelStats

	// Self-wake throughput.
	{
		env := sim.NewEnv(1)
		env.Go("spinner", func(p *sim.Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
		start := time.Now()
		env.RunFor(events * time.Microsecond)
		st.EventsPerSec = events / time.Since(start).Seconds()
		env.Shutdown()
	}

	// Cross-process handoff throughput.
	{
		env := sim.NewEnv(1)
		for i := 0; i < 2; i++ {
			env.Go("spinner", func(p *sim.Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
		}
		start := time.Now()
		env.RunFor(events / 2 * time.Microsecond)
		st.HandoffEventsPerSec = events / time.Since(start).Seconds()
		env.Shutdown()
	}

	// Contended resource grants.
	{
		env := sim.NewEnv(1)
		r := sim.NewResource(env, 2)
		grants := 0
		for i := 0; i < 8; i++ {
			env.Go("user", func(p *sim.Proc) {
				for {
					r.Acquire(p, 0)
					p.Sleep(time.Microsecond)
					grants++
					r.Release()
				}
			})
		}
		start := time.Now()
		env.RunFor(events / 4 * time.Microsecond)
		st.ResourceGrantsPerSec = float64(grants) / time.Since(start).Seconds()
		env.Shutdown()
	}

	// Queue put/get pairs.
	{
		env := sim.NewEnv(1)
		q := sim.NewQueue[int](env, 4)
		moved := 0
		env.Go("prod", func(p *sim.Proc) {
			for i := 0; ; i++ {
				q.Put(p, i)
				p.Sleep(time.Microsecond)
			}
		})
		env.Go("cons", func(p *sim.Proc) {
			for {
				q.Get(p)
				moved++
			}
		})
		start := time.Now()
		env.RunFor(events / 4 * time.Microsecond)
		st.QueueOpsPerSec = float64(moved) / time.Since(start).Seconds()
		env.Shutdown()
	}
	return st
}

// kernelBenchReport is the BENCH_kernel.json schema: the fixed seed-kernel
// baseline, the numbers from this run, and the headline speedup.
type kernelBenchReport struct {
	Baseline KernelStats `json:"baseline"`
	Current  KernelStats `json:"current"`
	// SpeedupEventsPerSec is current/baseline raw event throughput.
	SpeedupEventsPerSec float64 `json:"speedup_events_per_sec"`
	MeasuredAt          string  `json:"measured_at"`
}

// WriteKernelBench runs KernelBench and writes the report to path.
func WriteKernelBench(path string) (KernelStats, error) {
	cur := KernelBench()
	rep := kernelBenchReport{
		Baseline:            KernelBaseline,
		Current:             cur,
		SpeedupEventsPerSec: cur.EventsPerSec / KernelBaseline.EventsPerSec,
		MeasuredAt:          time.Now().UTC().Format(time.RFC3339),
	}
	return cur, writeReport(path, rep)
}
