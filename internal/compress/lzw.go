// Package compress implements the Lempel-Ziv-Welch codec NICFS runs in its
// replication pipeline's compression stage. The paper cites LZW at
// ~200 MB/s per SmartNIC core; the model charges 200 MB/s of reference-core
// work (node.Spec.CompressBW) and a NIC core runs at NICSpeed = 0.30 of a
// reference core, so a modeled SmartNIC core compresses at 60 MB/s and
// decompresses at 120 MB/s (EXPERIMENTS.md, "Known modeling deviations").
// The implementation is self-contained:
// variable-width codes from 9 to 16 bits, MSB-first bit packing, and a
// dictionary reset when the code space fills.
//
// There is one codec, Encoder.CompressInto / Decoder.DecompressInto: the
// dictionary lives in flat arrays owned by the Encoder/Decoder and is reused
// across calls and across mid-stream dictionary resets, and output is
// appended to a caller-provided scratch slice. With a warm codec and a
// large-enough scratch, steady-state operation performs no allocations; a
// zero Encoder or Decoder is ready to use and sizes itself on first call.
//
// The wire format is frozen: CompressInto produces bit-identical output to
// the seed implementation (see reference_test.go, which preserves that
// implementation as the oracle for the golden-bytes and fuzz tests).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	minBits   = 9
	maxBits   = 16
	clearCode = 256 // emitted to reset the dictionary
	eofCode   = 257
	firstCode = 258

	// resetAt is the code count at which the encoder emits a clear code and
	// starts a fresh dictionary (one below the 16-bit ceiling, matching the
	// seed encoder's `next >= 1<<maxBits-1` reset rule).
	resetAt = 1<<maxBits - 1

	// encTabBits sizes the encoder's hash table. The dictionary holds at
	// most resetAt-firstCode ≈ 65277 entries before a reset, so 2^17 slots
	// keep the load factor at ~0.5.
	encTabBits = 17
	encTabSize = 1 << encTabBits
	encTabMask = encTabSize - 1

	// decTabSize bounds the decoder dictionary: codes are at most 16 bits,
	// so no entry above index 1<<16-firstCode is ever referenced.
	decTabSize = 1 << maxBits
)

type bitWriter struct {
	out  []byte
	cur  uint32
	nbit uint
}

func (w *bitWriter) write(code uint32, bits uint) {
	w.cur = w.cur<<bits | code
	w.nbit += bits
	for w.nbit >= 8 {
		w.nbit -= 8
		w.out = append(w.out, byte(w.cur>>w.nbit))
	}
}

func (w *bitWriter) flush() {
	if w.nbit > 0 {
		w.out = append(w.out, byte(w.cur<<(8-w.nbit)))
		w.nbit = 0
	}
}

var errTruncated = errors.New("compress: truncated input")

// Encoder holds reusable LZW compression state: the dictionary as a flat,
// generation-stamped hash table mapping (prefix code, next byte) pairs to
// codes. A dictionary reset — mid-stream or between calls — only bumps the
// generation counter instead of clearing or reallocating the table, so a
// warm Encoder compresses without allocating.
//
// An Encoder is not safe for concurrent use; the replication pipeline keeps
// one per client, which is safe because compression never yields to the
// simulation scheduler mid-call.
// encEntry packs one hash slot into eight bytes. The key is only 24 bits
// (16-bit prefix code, 8-bit next byte), so the generation stamp that marks
// a slot live shares the key word: tag = gen<<24 | key, with gen cycling
// 1..255 and tag 0 meaning never-written. The probe loop is bound by cache
// misses on a table bigger than L2, so halving the entry from 12 to 8 bytes
// buys measurable throughput.
type encEntry struct {
	tag uint32 // gen<<24 | prefix<<8 | byte; live iff tag>>24 == Encoder.gen
	val uint32 // assigned code
}

type Encoder struct {
	tab []encEntry
	gen uint32 // current generation, 1..255
}

// NewEncoder returns an Encoder with its dictionary table allocated.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.init()
	return e
}

func (e *Encoder) init() {
	e.tab = make([]encEntry, encTabSize)
	e.gen = 0
}

// reset starts a fresh dictionary generation without touching the table.
func (e *Encoder) reset() {
	e.gen++
	if e.gen == 256 { // 8-bit stamp wrapped: stale tags could collide, really clear
		for i := range e.tab {
			e.tab[i] = encEntry{}
		}
		e.gen = 1
	}
}

// hash spreads the 24-bit (prefix, byte) key over the table.
func hashKey(key uint32) uint32 {
	return (key * 2654435761) >> (32 - encTabBits) & encTabMask
}

// CompressInto LZW-encodes src, appending the stream to dst and returning
// the extended slice. Pass dst[:0] to reuse a scratch buffer; with enough
// capacity the call does not allocate. Empty input yields a minimal valid
// stream.
//
//linefs:hotpath
func (e *Encoder) CompressInto(dst, src []byte) []byte {
	if len(dst) == 0 {
		dst = poisonScratch(dst)
	}
	if e.tab == nil {
		e.init()
	}
	e.reset()
	w := bitWriter{out: dst}

	next := uint32(firstCode)
	bits := uint(minBits)

	w.write(clearCode, bits)
	if len(src) == 0 {
		w.write(eofCode, bits)
		w.flush()
		return w.out
	}

	tab := (*[encTabSize]encEntry)(e.tab)
	genHi := e.gen << 24
	cur := uint32(src[0])
outer:
	for _, b := range src[1:] {
		tag := genHi | cur<<8 | uint32(b)
		// Find-or-insert with linear probing. A slot from another
		// generation counts as free.
		i := hashKey(tag & 0xFFFFFF)
		for {
			t := tab[i].tag
			if t == tag {
				cur = tab[i].val
				continue outer
			}
			if t&0xFF000000 != genHi {
				break
			}
			i = (i + 1) & encTabMask
		}
		w.write(cur, bits)
		tab[i] = encEntry{tag: tag, val: next}
		next++
		if next == 1<<bits && bits < maxBits {
			bits++
		}
		if next >= resetAt {
			w.write(clearCode, bits)
			e.reset()
			genHi = e.gen << 24
			next = firstCode
			bits = minBits
		}
		cur = uint32(b)
	}
	w.write(cur, bits)
	w.write(eofCode, eofBits(next, bits))
	w.flush()
	return w.out
}

// eofBits is the width of the end marker after the last data code went out
// at bits. The decoder counts a dictionary entry for every code it reads,
// that last one included, which the encoder (with nothing left to pair it
// with) never makes; when that phantom entry lands on a width step the
// decoder reads the marker one bit wider. The seed encoder wrote it at
// bits regardless, so one stream in a few thousand — 256 random bytes, for
// one — could not be decoded by anybody, the seed decoder included.
func eofBits(next uint32, bits uint) uint {
	if next == 1<<bits-1 && bits < maxBits {
		return bits + 1
	}
	return bits
}

// Decoder holds reusable LZW decompression state. Instead of the classic
// (prefix code, suffix byte) chain that expands one byte at a time, each
// dictionary entry records the span of the output where its expansion
// already appears: entry code is prev's expansion plus the first byte of
// the code that followed it, and those bytes are adjacent in the output by
// construction. Expansion is then a single bulk copy from earlier output —
// the same trick LZ77 decoders use — instead of a pointer chase through the
// dictionary. Resets only rewind the next-code counter, so a warm Decoder
// decompresses without allocating.
//
// A Decoder is not safe for concurrent use (see Encoder).
type Decoder struct {
	// tab[i] packs code firstCode+i's expansion span as pos<<32 | len,
	// so resolving a code costs one cache miss, not two.
	tab []uint64
}

// NewDecoder returns a Decoder with its dictionary table allocated.
func NewDecoder() *Decoder {
	d := &Decoder{}
	d.init()
	return d
}

func (d *Decoder) init() {
	d.tab = make([]uint64, decTabSize)
}

// growBytes extends b by n bytes (contents unspecified), reallocating only
// when capacity is insufficient.
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*cap(b)+n)
	copy(nb, b)
	return nb
}

// DecompressInto decodes an LZW stream produced by Compress or
// CompressInto, appending the output to dst and returning the extended
// slice. Pass dst[:0] to reuse a scratch buffer; with enough capacity the
// call does not allocate. On error the returned slice must be discarded.
//
//linefs:hotpath
func (d *Decoder) DecompressInto(dst, src []byte) ([]byte, error) {
	if len(dst) == 0 {
		dst = poisonScratch(dst)
	}
	if d.tab == nil {
		d.init()
	}
	// A fixed-size array view lets index masking stand in for bounds checks
	// in the per-code loop below.
	tab := (*[decTabSize]uint64)(d.tab)
	out := dst

	bits := uint(minBits)
	next := uint32(firstCode)

	// Bit reader state, kept in locals so the per-code read inlines: since
	// bits <= 16 and acc is 64-wide, a single 32-bit refill always suffices.
	var acc uint64
	var nbit uint
	pos := 0

	prev := uint32(clearCode)
	// Span of the previous code's expansion in out; the next dictionary
	// entry is exactly that span extended by one byte (the first byte of
	// the current expansion, which immediately follows it in out).
	prevStart, prevLen := 0, 0
	for {
		if nbit < bits {
			if pos+4 <= len(src) {
				acc = acc<<32 | uint64(binary.BigEndian.Uint32(src[pos:]))
				pos += 4
				nbit += 32
			} else {
				for nbit < bits {
					if pos >= len(src) {
						return nil, errTruncated
					}
					acc = acc<<8 | uint64(src[pos])
					pos++
					nbit += 8
				}
			}
		}
		nbit -= bits
		code := uint32(acc>>nbit) & (1<<bits - 1)
		switch {
		case code == eofCode:
			return out, nil
		case code == clearCode:
			next = firstCode
			bits = minBits
			prev = clearCode
			continue
		}
		if prev == clearCode {
			if code >= 256 {
				return nil, fmt.Errorf("compress: non-literal %d after clear", code)
			}
			out = append(out, byte(code))
			prev = code
			prevStart, prevLen = len(out)-1, 1
			continue
		}
		curStart := len(out)
		if code < firstCode {
			out = append(out, byte(code))
		} else if code < next {
			v := tab[(code-firstCode)%decTabSize]
			p, n := int(v>>32), int(uint32(v))
			out = growBytes(out, n)
			dspan, sspan := out[curStart:curStart+n], out[p:p+n]
			if n <= 4 {
				// Short spans dominate on poorly compressible data; a
				// byte loop beats the memmove call overhead.
				for i := range sspan {
					dspan[i] = sspan[i]
				}
			} else {
				copy(dspan, sspan)
			}
		} else if code == next {
			// The KwKwK case: the new entry is prev + first(prev), and
			// prev's expansion is the prevStart span we just produced.
			out = growBytes(out, prevLen+1)
			copy(out[curStart:], out[prevStart:prevStart+prevLen])
			out[curStart+prevLen] = out[prevStart]
		} else {
			return nil, fmt.Errorf("compress: code %d ahead of dictionary", code)
		}
		// Codes are at most 16 bits, so entries past decTabSize can never
		// be referenced; skip the store but keep counting so the width
		// schedule stays in lockstep with the encoder.
		if idx := next - firstCode; idx < decTabSize {
			tab[idx] = uint64(prevStart)<<32 | uint64(prevLen+1)
		}
		next++
		if next == 1<<bits-1 && bits < maxBits {
			// Encoder switches width when its next would hit 1<<bits;
			// it assigns codes one ahead of the decoder, hence -1.
			bits++
		}
		prev = code
		prevStart, prevLen = curStart, len(out)-curStart
	}
}
