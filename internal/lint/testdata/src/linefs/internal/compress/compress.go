// Package compress is a stub of the replication compressor for wirecheck
// tests.
package compress

// Encoder is the stub reusable compressor.
type Encoder struct{}

// CompressInto compresses src, appending to dst.
//
//linefs:hotpath
func (e *Encoder) CompressInto(dst, src []byte) []byte { return dst }

// Decoder is the stub reusable decompressor.
type Decoder struct{}

// DecompressInto expands src, appending to dst.
//
//linefs:hotpath
func (d *Decoder) DecompressInto(dst, src []byte) ([]byte, error) { return nil, nil }
