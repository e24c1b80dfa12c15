// Package core implements LineFS: a SmartNIC-offloaded distributed file
// system with client-local persistent memory (SOSP '21). Each node runs
//
//   - LibFS instances linked into client processes on the host: they
//     intercept file system calls, persist data and metadata to a private
//     PM operational log, and serve reads from the log plus the public PM
//     area (§3.2);
//   - NICFS on the SmartNIC: it publishes client logs to public PM and
//     chain-replicates them to remote nodes through parallel datapath
//     execution pipelines, arbitrates leases, performs optional coalescing
//     and compression, monitors the host kernel worker, and keeps the node
//     available in isolated mode when the host OS fails (§3.3–3.5);
//   - a kernel worker in the host kernel that publishes chunks with the
//     I/OAT DMA engine on NICFS's behalf (§4).
//
// The package follows the persist-and-publish model: LibFS makes updates
// durable with fast host cores; NICFS moves them to public and remote PM in
// the background with SmartNIC cores, keeping client log order end to end.
package core

import "linefs/internal/cluster"

// PubMode selects how the kernel worker publishes chunk data (Figure 7).
type PubMode uint8

// Publication methods.
const (
	// PubDMAIntrBatch batches copy requests and blocks on a DMA completion
	// interrupt — the default used by all other benchmarks.
	PubDMAIntrBatch PubMode = iota
	// PubDMAPollingBatch batches copy requests and busy-polls a host core
	// until the DMA completes.
	PubDMAPollingBatch
	// PubDMAPolling issues one DMA per copy and busy-polls (SPDK-style).
	PubDMAPolling
	// PubCPUMemcpy copies with host cores.
	PubCPUMemcpy
	// PubNoCopy skips data publication entirely (analysis only: published
	// file contents are not materialized).
	PubNoCopy
)

func (m PubMode) String() string {
	switch m {
	case PubDMAIntrBatch:
		return "DMA interrupt + batch"
	case PubDMAPollingBatch:
		return "DMA polling + batch"
	case PubDMAPolling:
		return "DMA polling"
	case PubCPUMemcpy:
		return "CPU memcpy"
	case PubNoCopy:
		return "No copy"
	}
	return "unknown"
}

// Config parameterizes a LineFS cluster: the shared testbed layout plus what
// only NICFS and its kernel worker have.
type Config struct {
	cluster.Layout

	// Parallel enables pipeline parallelism; false gives the
	// LineFS-NotParallel configuration that processes each chunk's stages
	// sequentially in one thread.
	Parallel bool

	// Compress enables the replication compression stage.
	Compress bool

	// DisableCoalesce turns off the semantic-compression stage (ablation).
	DisableCoalesce bool

	// PubMode selects the kernel worker's publication method.
	PubMode PubMode
}

// DefaultConfig returns the paper's configuration on the default layout.
func DefaultConfig() Config {
	return Config{
		Layout:   cluster.DefaultLayout(),
		Parallel: true,
		PubMode:  PubDMAIntrBatch,
	}
}
