package hw

import (
	"time"

	"linefs/internal/sim"
)

// DMA models an Intel I/OAT-style DMA engine: a small number of channels
// that copy memory without occupying CPU cores. Completion can be awaited
// by polling (the caller burns a core elsewhere) or by interrupt (extra
// completion latency, no CPU).
type DMA struct {
	Env      *sim.Env
	chans    *sim.Resource
	SetupLat time.Duration
	// BytesPerSec is the per-channel copy bandwidth.
	BytesPerSec float64
	// IntrLat is the additional completion-notification latency in
	// interrupt mode.
	IntrLat time.Duration
	// pmLink, when set, charges copies against the PM device bandwidth too.
	pmLink *Link
}

// DMAConfig sets engine parameters.
type DMAConfig struct {
	Channels    int
	SetupLat    time.Duration
	BytesPerSec float64
	IntrLat     time.Duration
}

// NewDMA creates a DMA engine. pmLink may be nil.
func NewDMA(env *sim.Env, cfg DMAConfig, pmLink *Link) *DMA {
	return &DMA{
		Env:         env,
		chans:       sim.NewResource(env, cfg.Channels),
		SetupLat:    cfg.SetupLat,
		BytesPerSec: cfg.BytesPerSec,
		IntrLat:     cfg.IntrLat,
		pmLink:      pmLink,
	}
}

// Copy performs a DMA copy of n bytes and blocks p until the data is placed
// (polling-style wait; the caller models where the polling core burns).
func (d *DMA) Copy(p *sim.Proc, n int) {
	d.chans.Acquire(p, 0)
	defer d.chans.Release()
	p.Sleep(d.SetupLat)
	// The engine's copy bandwidth already reflects streaming through PM;
	// account the bytes on the device link (for utilization) without
	// serializing them twice.
	if d.pmLink != nil {
		d.pmLink.Bytes.Add(int64(2 * n))
	}
	p.Sleep(time.Duration(float64(n) / d.BytesPerSec * float64(time.Second)))
}

// CopyIntr performs a DMA copy and blocks p until the completion interrupt
// is delivered. The calling process does not burn CPU while waiting.
func (d *DMA) CopyIntr(p *sim.Proc, n int) {
	d.Copy(p, n)
	p.Sleep(d.IntrLat)
}
