package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// compress, decompress and ratio are the one-call forms the tests want:
// fresh codec, fresh output buffer.
func compress(src []byte) []byte {
	return new(Encoder).CompressInto(nil, src)
}

func decompress(src []byte) ([]byte, error) {
	return new(Decoder).DecompressInto(nil, src)
}

// ratio returns 1 - len(compressed)/len(src): the fraction of bytes saved
// (0 for incompressible data).
func ratio(src []byte) float64 {
	if len(src) == 0 {
		return 0
	}
	return max(0, 1-float64(len(compress(src)))/float64(len(src)))
}

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	c := compress(src)
	d, err := decompress(c)
	if err != nil {
		t.Fatalf("decompress: %v (input len %d)", err, len(src))
	}
	if !bytes.Equal(src, d) {
		t.Fatalf("round trip mismatch: in %d bytes, out %d bytes", len(src), len(d))
	}
}

func TestRoundTripBasics(t *testing.T) {
	t.Parallel()
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abababababababab"),
		[]byte("TOBEORNOTTOBEORTOBEORNOT"),
		bytes.Repeat([]byte{0}, 100000),
		bytes.Repeat([]byte("abcdefgh"), 10000),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestRoundTripRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		n := rng.Intn(100000)
		buf := make([]byte, n)
		rng.Read(buf)
		roundTrip(t, buf)
	}
}

func TestRoundTripDictionaryReset(t *testing.T) {
	t.Parallel()
	// Enough distinct digrams to exhaust the 16-bit code space and force a
	// clear code mid-stream.
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 2<<20)
	rng.Read(buf)
	roundTrip(t, buf)
}

func TestRoundTripQuick(t *testing.T) {
	t.Parallel()
	f := func(src []byte) bool {
		c := compress(src)
		d, err := decompress(c)
		return err == nil && bytes.Equal(src, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressesRedundantData(t *testing.T) {
	t.Parallel()
	src := bytes.Repeat([]byte("record0000"), 5000)
	c := compress(src)
	if len(c) >= len(src)/3 {
		t.Fatalf("redundant data compressed to %d of %d bytes", len(c), len(src))
	}
}

func TestRatioZeroHeavyInput(t *testing.T) {
	t.Parallel()
	// An 80%-zero input should compress by well over half.
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1<<18)
	for i := range buf {
		if rng.Float64() > 0.8 {
			buf[i] = byte(rng.Intn(256))
		}
	}
	if r := ratio(buf); r < 0.5 {
		t.Fatalf("ratio = %.2f, want > 0.5 for 80%% zeros", r)
	}
	rng.Read(buf)
	if r := ratio(buf); r > 0.05 {
		t.Fatalf("ratio = %.2f for random data, want ~0", r)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := decompress([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := decompress(nil); err == nil {
		t.Fatal("empty stream accepted (missing EOF code)")
	}
}

func TestDecompressTruncated(t *testing.T) {
	t.Parallel()
	c := compress(bytes.Repeat([]byte("hello world "), 1000))
	if _, err := decompress(c[:len(c)/2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func BenchmarkCompress1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 1<<20)
	for i := range buf {
		if rng.Float64() > 0.6 {
			buf[i] = byte(rng.Intn(256))
		}
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress(buf)
	}
}

// TestEveryPrefixLengthRoundTrips walks the end of the stream across every
// code-width step: incompressible input emits one code per byte, so among
// 2048 prefix lengths the last code lands on the 9→10 and 10→11 bit steps
// (at the seed, prefixes 256, 772 and 1811 of this buffer produced streams
// no decoder accepted — the end marker was written one bit too narrow).
func TestEveryPrefixLengthRoundTrips(t *testing.T) {
	buf := make([]byte, 2048)
	rand.New(rand.NewSource(1)).Read(buf)
	enc, dec := NewEncoder(), NewDecoder()
	var stream, out []byte
	for n := 0; n <= len(buf); n++ {
		stream = enc.CompressInto(stream[:0], buf[:n])
		var err error
		if out, err = dec.DecompressInto(out[:0], stream); err != nil || !bytes.Equal(out, buf[:n]) {
			t.Fatalf("prefix %d: err=%v, %d bytes back", n, err, len(out))
		}
		if ref, err := ReferenceDecompress(stream); err != nil || !bytes.Equal(ref, buf[:n]) {
			t.Fatalf("prefix %d: reference decoder: err=%v, %d bytes back", n, err, len(ref))
		}
	}
}
