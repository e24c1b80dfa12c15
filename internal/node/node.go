// Package node composes the hardware of one testbed machine — host CPU,
// persistent memory, PCIe, I/OAT DMA engine, SmartNIC (wimpy cores + DRAM)
// and the network port — and defines the calibrated cost-model constants
// used across LineFS and the baselines. The values mirror the paper's
// testbed (§5.1): dual-socket 48-core Xeon hosts at 2.2 GHz, 6x Optane
// DIMMs, Mellanox BlueField SmartNICs (16x A72 at 800 MHz, 16 GB DRAM),
// 25 GbE RoCE.
package node

import (
	"fmt"
	"time"

	"linefs/internal/hw"
	"linefs/internal/rdma"
	"linefs/internal/sim"
)

// Spec holds the tunable hardware and software cost model.
type Spec struct {
	// Host processor.
	HostCores int
	HostSpeed float64

	// SmartNIC processor: 800 MHz A72 vs 2.2 GHz Xeon, further derated for
	// its small caches and slow DRAM (the paper measures >2x slower L3 and
	// DRAM access).
	NICCores int
	NICSpeed float64

	// PM device.
	PMSize int64
	PM     hw.PMConfig

	// SmartNIC DRAM.
	NICMemSize int64
	NICMemLat  time.Duration
	NICMemBW   float64

	// PCIe path between SmartNIC and host PM. PCIeBW is the raw link
	// (Gen3 x16-class); FetchBW is the effective bandwidth of the NIC's
	// one-sided-read engine across it, measured at ~4 GB/s on the testbed
	// (a 4 MB chunk fetch takes ~1.0 ms, Fig. 5).
	PCIeLat time.Duration
	PCIeBW  float64
	FetchBW float64

	// Network port (25 GbE; effective goodput below line rate).
	NetBW     float64
	SwitchLat time.Duration

	// I/OAT DMA engine.
	DMA hw.DMAConfig

	// Software cost constants (reference-core time).
	SyscallCost    time.Duration // trap + VFS interception in LibFS
	HostRPCCost    time.Duration // host-side RPC handling
	NICRPCCost     time.Duration // SmartNIC-side RPC handling (wimpy)
	ValidatePerMiB time.Duration // validation+coalescing scan, per MiB
	LeaseCheckCost time.Duration // per-entry lease ownership check
	CompressBW     float64       // LZW throughput of a reference core (B/s); a NIC core runs at NICSpeed of it
	MemcpyBW       float64       // host-core DRAM memcpy bandwidth (B/s)
	// PMStoreBW is single-thread CPU store bandwidth into PM: Optane's
	// write-combining limits a core to ~1.5 GB/s — the physical reason
	// host-CPU replication ingest (Assise) cannot saturate the network
	// while DMA-based publication (LineFS) can.
	PMStoreBW float64
}

// DefaultSpec returns the calibrated testbed model.
func DefaultSpec() Spec {
	return Spec{
		HostCores: 48,
		HostSpeed: 1.0,

		NICCores: 16,
		NICSpeed: 0.30,

		PMSize: 2 << 30,
		PM: hw.PMConfig{
			ReadLat:  300 * time.Nanosecond,
			WriteLat: 100 * time.Nanosecond,
			// Six interleaved Optane DIMMs: tens of GB/s aggregate.
			Bandwidth: 24e9,
		},

		NICMemSize: 16 << 30,
		NICMemLat:  150 * time.Nanosecond,
		NICMemBW:   10e9,

		PCIeLat: 900 * time.Nanosecond,
		PCIeBW:  9e9,
		FetchBW: 4.2e9,

		NetBW:     2.75e9,
		SwitchLat: 1500 * time.Nanosecond,

		DMA: hw.DMAConfig{
			Channels:    8,
			SetupLat:    2 * time.Microsecond,
			BytesPerSec: 2.8e9,
			IntrLat:     6 * time.Microsecond,
		},

		SyscallCost: 350 * time.Nanosecond,
		HostRPCCost: 1500 * time.Nanosecond,
		NICRPCCost:  9 * time.Microsecond,
		// 65 us to validate a 4 MiB chunk on the wimpy cores (Fig. 5);
		// expressed as reference-core work (the 0.30-speed NIC cores take
		// 65 us / 4 MiB wall clock).
		ValidatePerMiB: 4875 * time.Nanosecond,
		LeaseCheckCost: 400 * time.Nanosecond,
		CompressBW:     200e6,
		MemcpyBW:       10e9,
		PMStoreBW:      1.6e9,
	}
}

// Machine is one physical node: host side, SmartNIC side, and the links
// between and out of them.
type Machine struct {
	Env  *sim.Env
	Name string
	Spec Spec

	HostCPU *hw.CPU
	PM      *hw.PM
	DMA     *hw.DMA

	NICCPU *hw.CPU
	NICMem *hw.Mem

	// PCIe is the host<->SmartNIC interconnect, charged on every SmartNIC
	// access to host PM; Fetch is the NIC's one-sided read engine over it
	// (the slower path that makes chunk batching worthwhile).
	PCIe  *hw.Link
	Fetch *hw.Link

	// Port is the machine's network endpoint on the cluster fabric. Both
	// host-initiated RDMA (Assise) and NICFS traffic use it.
	Port *rdma.NIC

	// HostPort and NICPort are endpoints on the machine-local fabric used
	// for host<->SmartNIC RPC and one-sided access across PCIe; this
	// traffic does not consume network bandwidth.
	Local    *rdma.Fabric
	HostPort *rdma.NIC
	NICPort  *rdma.NIC

	// HostUp tracks host OS liveness (false after a host crash while the
	// SmartNIC keeps running).
	HostUp bool
}

// NewMachine builds a machine named name on the given cluster fabric.
func NewMachine(env *sim.Env, fabric *rdma.Fabric, name string, spec Spec) *Machine {
	m := &Machine{
		Env:     env,
		Name:    name,
		Spec:    spec,
		HostCPU: hw.NewCPU(env, name+"/host", spec.HostCores, spec.HostSpeed),
		PM:      hw.NewPM(env, name+"/pm", hw.PMConfig{Size: spec.PMSize, ReadLat: spec.PM.ReadLat, WriteLat: spec.PM.WriteLat, Bandwidth: spec.PM.Bandwidth}),
		NICCPU:  hw.NewCPU(env, name+"/nic", spec.NICCores, spec.NICSpeed),
		NICMem:  hw.NewMem(env, name+"/nicmem", spec.NICMemSize, spec.NICMemLat, spec.NICMemBW),
		PCIe:    newPCIeLink(env, name, spec),
		Fetch:   hw.NewLink(env, name+"/fetch", spec.PCIeLat, spec.FetchBW),
		Port:    fabric.NewNIC(name, spec.NetBW),
		HostUp:  true,
	}
	m.Local = rdma.NewFabric(env, spec.PCIeLat)
	m.HostPort = m.Local.NewNIC(name+".host", spec.PCIeBW)
	m.NICPort = m.Local.NewNIC(name+".nic", spec.PCIeBW)
	m.DMA = hw.NewDMA(env, spec.DMA, m.PM.Link())
	return m
}

// newPCIeLink models the host<->SmartNIC path.
func newPCIeLink(env *sim.Env, name string, spec Spec) *hw.Link {
	return hw.NewLink(env, name+"/pcie", spec.PCIeLat, spec.PCIeBW)
}

// NewFabric creates the cluster network fabric for a set of machines.
func NewFabric(env *sim.Env, spec Spec) *rdma.Fabric {
	return rdma.NewFabric(env, spec.SwitchLat)
}

// CrashHost marks the host OS down. Unpersisted PM state is lost; the
// SmartNIC keeps running. Callers kill host-side processes themselves.
func (m *Machine) CrashHost() {
	if !m.HostUp {
		return
	}
	m.HostUp = false
	m.PM.Crash()
}

// RecoverHost marks the host OS up again after a reboot.
func (m *Machine) RecoverHost() { m.HostUp = true }

func (m *Machine) String() string {
	return fmt.Sprintf("machine(%s)", m.Name)
}
