package hw

import (
	"fmt"

	"linefs/internal/sim"
)

// Mem models a volatile memory pool with capacity accounting — the
// SmartNIC's 16 GB DRAM, whose exhaustion drives NICFS replication flow
// control.
type Mem struct {
	Env  *sim.Env
	Name string

	size int64
	used int64
}

// NewMem creates a memory pool of the given size.
func NewMem(env *sim.Env, name string, size int64) *Mem {
	return &Mem{
		Env:  env,
		Name: name,
		size: size,
	}
}

// Size returns total capacity.
func (m *Mem) Size() int64 { return m.size }

// Used returns currently-allocated bytes.
func (m *Mem) Used() int64 { return m.used }

// Utilization returns used/size in [0,1].
func (m *Mem) Utilization() float64 {
	if m.size == 0 {
		return 0
	}
	return float64(m.used) / float64(m.size)
}

// Alloc reserves n bytes; it reports whether capacity was available.
func (m *Mem) Alloc(n int64) bool {
	if m.used+n > m.size {
		return false
	}
	m.used += n
	return true
}

// Free releases n bytes.
func (m *Mem) Free(n int64) {
	m.used -= n
	if m.used < 0 {
		panic(fmt.Sprintf("hw: mem %s freed more than allocated", m.Name))
	}
}
