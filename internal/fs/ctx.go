// Package fs implements the persistent-memory file system layout shared by
// LineFS and the Assise baseline: a superblock, block allocator, inode
// table, per-file extent chains, directories, and the client-private
// operational log format with CRC-protected entries, plus the coalescing
// analysis the publishing pipeline runs.
//
// All structures live in simulated PM as real bytes; every manipulation
// reads and writes the device through a Ctx that charges the acting
// processor and interconnect in virtual time. The same code therefore runs
// whether the actor is a host core, a wimpy SmartNIC core across PCIe, or
// cost-free test setup.
package fs

import (
	"time"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

// Ctx identifies who is touching PM and over which interconnect, so costs
// land on the right timeline. A Ctx with no WriteLink is a host-core actor;
// a NICFS actor carries the PCIe link in WriteLink and the SmartNIC CPU. A
// Ctx with no process charges nothing (setup and test inspection).
//
// A Ctx is a value: its builders return one, the caller keeps it in its own
// frame and passes its address down, and no function here retains the
// pointer, so a per-operation context never reaches the heap (DESIGN.md §10).
type Ctx struct {
	P  *sim.Proc
	PM *hw.PM
	// WriteLink, when set, is crossed by each write (PCIe from a SmartNIC to
	// host PM). Reads cross no link: a NICFS metadata read is charged as a
	// host PM read (ROADMAP 5(b)).
	WriteLink *hw.Link
	// CPU, when set, is charged for Compute work.
	CPU  *hw.CPU
	Prio int
	Tag  string
	// MemAmp amplifies write traffic on the PM's memory system (CPU-store
	// actors; 0/1 = none). See hw.PM.WriteAmp.
	MemAmp int
}

// NoCostCtx returns a cost-free context for pm (setup and verification).
func NoCostCtx(pm *hw.PM) *Ctx { return &Ctx{PM: pm} }

// Read copies PM bytes at off into dst, charging access cost.
func (c *Ctx) Read(off int64, dst []byte) {
	if c.P == nil {
		c.PM.ReadNoCost(off, dst)
		return
	}
	c.PM.Read(c.P, off, dst)
}

// Write stores src at off and persists it (metadata and log writes on the
// persistence-critical path flush eagerly).
func (c *Ctx) Write(off int64, src []byte) {
	if c.P == nil {
		c.PM.WriteNoCost(off, src)
		c.PM.PersistNoCost(off, int64(len(src)))
		return
	}
	// PCIe writes are posted and tiny (metadata write-back from the NIC
	// DRAM cache): account their bytes without serializing them behind
	// bulk chunk fetches.
	if c.WriteLink != nil {
		c.WriteLink.Bytes.Add(int64(len(src)))
	}
	c.PM.WriteAmp(c.P, off, src, c.MemAmp)
	c.PM.Persist(c.P, off, int64(len(src)))
}

// Compute charges reference-core work to the acting CPU.
func (c *Ctx) Compute(work time.Duration) {
	if c.P == nil || c.CPU == nil || work <= 0 {
		return
	}
	c.CPU.Compute(c.P, work, c.Prio, c.Tag)
}
