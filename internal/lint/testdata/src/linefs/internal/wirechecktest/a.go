// Package wirechecktest seeds wirecheck violations.
package wirechecktest

import (
	"linefs/internal/compress"
	"linefs/internal/fs"
)

func bad(la *fs.LogArea, ctx *fs.Ctx, e *fs.Entry, raw []byte) {
	la.Append(ctx, e)                // want `result of LogArea\.Append dropped`
	_, _ = fs.DecodeAll(raw)         // want `error from fs\.DecodeAll assigned to _`
	_ = la.AdvanceHead(ctx, 0, 0)    // want `error from LogArea\.AdvanceHead assigned to _`
	_ = la.MirrorRaw(ctx, 0, raw)    // want `error from LogArea\.MirrorRaw assigned to _`
	_, _ = fs.OpenLogArea(ctx, 0, 0) // want `error from fs\.OpenLogArea assigned to _`
	fs.VerifyWire(raw)               // want `result of fs\.VerifyWire dropped`
	_ = fs.VerifyWire(raw)           // want `error from fs\.VerifyWire assigned to _`
}

func badScratch(la *fs.LogArea, ctx *fs.Ctx, e *fs.Entry, d *compress.Decoder, raw []byte) {
	fs.DecodeEntryInto(e, raw)                      // want `result of fs\.DecodeEntryInto dropped`
	d.DecompressInto(nil, raw)                      // want `result of Decoder\.DecompressInto dropped`
	_, _ = d.DecompressInto(nil, raw)               // want `error from Decoder\.DecompressInto assigned to _`
	_, _ = fs.DecodeEntryInto(e, raw)               // want `error from fs\.DecodeEntryInto assigned to _`
	_, _, _ = la.DecodeRangeScratch(ctx, nil, 0, 0) // want `error from LogArea\.DecodeRangeScratch assigned to _`
	_, _ = la.VisitRange(ctx, nil, 0, 0, nil)       // want `error from LogArea\.VisitRange assigned to _`
}

func good(la *fs.LogArea, ctx *fs.Ctx, e *fs.Entry, d *compress.Decoder, raw []byte) error {
	if _, err := la.Append(ctx, e); err != nil {
		return err
	}
	entries, err := fs.DecodeAll(raw)
	if err != nil {
		return err
	}
	_ = entries
	if err := la.AdvanceHead(ctx, 0, 0); err != nil {
		return err
	}
	out, err := d.DecompressInto(nil, raw)
	_ = out
	return err
}

func allowed(la *fs.LogArea, ctx *fs.Ctx) {
	//lint:allow wirecheck head equality is pre-checked two lines up
	_ = la.AdvanceHead(ctx, 0, 0)
}

// unrelated calls with the same names on other types are not flagged.
type other struct{}

func (other) Append(a, b int)    {}
func (other) AdvanceHead() error { return nil }

func notWire(o other) {
	o.Append(1, 2)
	_ = o.AdvanceHead()
}
