package core

import (
	"time"

	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// KWorker is the host kernel worker (§4): a kernel module that publishes
// chunk data to public PM with the I/OAT DMA engine on NICFS's behalf. It
// serves a machine-local RPC service ("kworker") with copy batches and
// liveness probes. When the host OS crashes the worker dies with it; NICFS
// detects the missed probes and switches to isolated PCIe publication.
type KWorker struct {
	cl      *Cluster
	machine int

	q *sim.Queue[*rdma.Msg]
	g *sim.Group // the threads

	// CopiedBytes counts data published through this worker.
	CopiedBytes int64
	// Batches counts copy RPCs served.
	Batches int64
}

const kworkerService = "kworker"

func newKWorker(cl *Cluster, machine int) *KWorker {
	kw := &KWorker{
		cl:      cl,
		machine: machine,
		q:       sim.NewQueue[*rdma.Msg](cl.Env, 0),
		g:       cl.Env.NewGroup(),
	}
	cl.Machines[machine].HostPort.Register(kworkerService, kw.q)
	return kw
}

// Start launches the worker's service processes.
func (kw *KWorker) Start() {
	m := kw.cl.Machines[kw.machine]
	// One kernel thread per DMA channel so concurrent clients' chunks
	// publish in parallel.
	for i := 0; i < kw.cl.Cfg.Spec.DMA.Channels; i++ {
		kw.g.Go(m.Name+"/kworker", kw.run)
	}
}

// Crash kills the worker's processes and unregisters its service (host OS
// failure).
func (kw *KWorker) Crash() {
	kw.g.Kill()
	kw.cl.Machines[kw.machine].HostPort.Unregister(kworkerService)
	kw.q.Close()
}

// Restart brings the worker back after a host reboot. The worker is
// stateless, so it simply re-registers and resumes serving copy requests.
func (kw *KWorker) Restart() {
	kw.q = sim.NewQueue[*rdma.Msg](kw.cl.Env, 0)
	kw.cl.Machines[kw.machine].HostPort.Register(kworkerService, kw.q)
	kw.Start()
}

func (kw *KWorker) run(p *sim.Proc) {
	for {
		msg, ok := kw.q.Get(p)
		if !ok {
			return
		}
		kw.serve(p, msg)
	}
}

// serve answers one request.
func (kw *KWorker) serve(p *sim.Proc, msg *rdma.Msg) {
	switch msg.Op {
	case "probe":
		// Liveness probe from NICFS: negligible work.
		kw.cl.Machines[kw.machine].HostCPU.Compute(p, 200*time.Nanosecond, kw.cl.Cfg.DFSPrio, "dfs")
		msg.Respond(p, true, 8)

	case "copy":
		// A batch whose caller gave up is dropped before it is issued: NICFS
		// has published it across PCIe itself and may since have published
		// newer bytes over it (DESIGN.md §12).
		if !msg.Abandoned() {
			kw.serveCopy(p, msg.Arg.(*copyReq))
		}
		msg.Respond(p, true, 8)

	default:
		msg.RespondErr(p, rdma.ErrUnreachable)
	}
}

// The host-core time one batch costs in the default mode (interrupt +
// batch): issuing the DMA, and taking its completion interrupt. NICFS
// weighs their sum against PCIe (pcieCrossover).
const (
	kwIssueCost      = 2 * time.Microsecond
	kwCompletionCost = time.Microsecond
)

// serveCopy publishes a batch according to the configured mode. The data
// bytes are materialized into PM here — publication completes when the
// copy engine finishes, and the bytes persist as they land (DMA writes to
// PM bypass the CPU cache hierarchy).
func (kw *KWorker) serveCopy(p *sim.Proc, req *copyReq) {
	cl := kw.cl
	m := cl.Machines[kw.machine]
	cpu := m.HostCPU
	prio := cl.Cfg.DFSPrio
	mode := cl.Cfg.PubMode

	total := copyBytes(req.Items)
	kw.Batches++
	kw.CopiedBytes += int64(total)

	place := func() {
		for _, it := range req.Items {
			m.PM.WriteNoCost(it.Dst, it.Data)
			m.PM.PersistNoCost(it.Dst, int64(len(it.Data)))
		}
	}

	switch mode {
	case PubNoCopy:
		// Analysis mode: skip data movement entirely.
		return

	case PubCPUMemcpy:
		// Host cores move every byte: full memcpy cost plus PM bandwidth.
		cpu.Compute(p, time.Duration(float64(total)/cl.Cfg.Spec.MemcpyBW*float64(time.Second)), prio, "dfs")
		for _, it := range req.Items {
			kw.hostWrite(p, it)
		}
		return

	case PubDMAPolling:
		// One DMA per item; a host core busy-polls each completion.
		for _, it := range req.Items {
			pc := cpu.Pin(p, prio)
			start := p.Now()
			m.DMA.Copy(p, len(it.Data))
			cpu.Util.Add("dfs", time.Duration(p.Now()-start))
			pc.Unpin()
		}
		place()
		return

	case PubDMAPollingBatch:
		// One issue per batch; a host core busy-polls until the whole
		// batch completes.
		pc := cpu.Pin(p, prio)
		start := p.Now()
		m.DMA.Copy(p, total)
		cpu.Util.Add("dfs", time.Duration(p.Now()-start))
		pc.Unpin()
		place()
		return

	default: // PubDMAIntrBatch
		// Issue the batch, sleep until the completion interrupt: only the
		// small issue/completion handling burns CPU.
		cpu.Compute(p, kwIssueCost, prio, "dfs")
		m.DMA.CopyIntr(p, total)
		cpu.Compute(p, kwCompletionCost, prio, "dfs")
		place()
		return
	}
}

// hostWrite places one item via CPU stores (memcpy publication mode).
func (kw *KWorker) hostWrite(p *sim.Proc, it copyItem) {
	m := kw.cl.Machines[kw.machine]
	m.PM.WritePersist(p, it.Dst, it.Data)
}
