package compress

import "fmt"

// This file preserves the seed (PR 0) LZW implementation verbatim, as the
// frozen oracle for the codec in lzw.go: the golden-bytes and fuzz tests
// assert CompressInto produces bit-identical streams and DecompressInto
// accepts/rejects identical inputs, proving the wire format did not move
// when the dictionary became flat arrays. It lives in a _test file so no
// production package exports a seed implementation; -databench's baseline
// column is the recorded number (internal/bench/dataplane.go).
//
// Do not optimize this file; its slowness is the point.

// refBitReader is the seed bit reader: byte-at-a-time refill into a 32-bit
// accumulator. (lzw.go's bitReader has since grown a word-sized refill, so
// the baseline keeps its own copy.)
type refBitReader struct {
	in   []byte
	pos  int
	cur  uint32
	nbit uint
}

func (r *refBitReader) read(bits uint) (uint32, error) {
	for r.nbit < bits {
		if r.pos >= len(r.in) {
			return 0, errTruncated
		}
		r.cur = r.cur<<8 | uint32(r.in[r.pos])
		r.pos++
		r.nbit += 8
	}
	r.nbit -= bits
	return (r.cur >> r.nbit) & (1<<bits - 1), nil
}

// ReferenceCompress is the seed encoder: a fresh map-backed dictionary per
// call, reallocated on every mid-stream reset.
func ReferenceCompress(src []byte) []byte {
	var w bitWriter
	w.out = make([]byte, 0, len(src)/2+16)

	// Dictionary: maps (prefix code, next byte) to code. Encoded as
	// uint32 keys: prefix<<8 | byte.
	dict := make(map[uint32]uint32, 4096)
	next := uint32(firstCode)
	bits := uint(minBits)

	w.write(clearCode, bits)
	if len(src) == 0 {
		w.write(eofCode, bits)
		w.flush()
		return w.out
	}

	cur := uint32(src[0])
	for _, b := range src[1:] {
		key := cur<<8 | uint32(b)
		if code, ok := dict[key]; ok {
			cur = code
			continue
		}
		w.write(cur, bits)
		dict[key] = next
		next++
		if next == 1<<bits && bits < maxBits {
			bits++
		}
		if next >= 1<<maxBits-1 {
			w.write(clearCode, bits)
			dict = make(map[uint32]uint32, 4096)
			next = firstCode
			bits = minBits
		}
		cur = uint32(b)
	}
	w.write(cur, bits)
	w.write(eofCode, eofBits(next, bits)) // the one departure from the seed: see eofBits
	w.flush()
	return w.out
}

// ReferenceDecompress is the seed decoder: an append-grown entry slice and
// a scratch buffer reversed on every expansion.
func ReferenceDecompress(src []byte) ([]byte, error) {
	r := refBitReader{in: src}
	out := make([]byte, 0, len(src)*3)

	// Dictionary entries: each code maps to (prefix code, suffix byte);
	// literals are implicit.
	type entry struct {
		prefix uint32
		suffix byte
	}
	var dict []entry
	bits := uint(minBits)
	next := uint32(firstCode)
	reset := func() {
		dict = dict[:0]
		next = firstCode
		bits = minBits
	}
	reset()

	expand := func(code uint32, buf []byte) ([]byte, error) {
		start := len(buf)
		for code >= firstCode {
			idx := code - firstCode
			if int(idx) >= len(dict) {
				return nil, fmt.Errorf("compress: bad code %d", code)
			}
			buf = append(buf, dict[idx].suffix)
			code = dict[idx].prefix
		}
		if code >= 256 {
			return nil, fmt.Errorf("compress: bad literal %d", code)
		}
		buf = append(buf, byte(code))
		// Reverse the appended segment (we walked suffix-first).
		seg := buf[start:]
		for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
			seg[i], seg[j] = seg[j], seg[i]
		}
		return buf, nil
	}

	prev := uint32(clearCode)
	var scratch []byte
	for {
		code, err := r.read(bits)
		if err != nil {
			return nil, err
		}
		switch {
		case code == eofCode:
			return out, nil
		case code == clearCode:
			reset()
			prev = clearCode
			continue
		}
		if prev == clearCode {
			if code >= 256 {
				return nil, fmt.Errorf("compress: non-literal %d after clear", code)
			}
			out = append(out, byte(code))
			prev = code
		} else {
			var suffix byte
			if code < next {
				scratch, _ = expand(code, scratch[:0])
				suffix = scratch[0]
				out = append(out, scratch...)
			} else if code == next {
				// The KwKwK case: the new entry is prev + first(prev).
				scratch, err = expand(prev, scratch[:0])
				if err != nil {
					return nil, err
				}
				suffix = scratch[0]
				out = append(out, scratch...)
				out = append(out, suffix)
			} else {
				return nil, fmt.Errorf("compress: code %d ahead of dictionary", code)
			}
			dict = append(dict, entry{prefix: prev, suffix: suffix})
			next++
			if next == 1<<bits-1 && bits < maxBits {
				// Encoder switches width when its next would hit 1<<bits;
				// it assigns codes one ahead of the decoder, hence -1.
				bits++
			}
			prev = code
		}
	}
}
