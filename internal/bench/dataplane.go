package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/hw"
	"linefs/internal/sim"
)

// DataStats are wall-clock throughput numbers for the real data-plane
// compute the simulation carries: LZW compression of payload bytes, the
// CRC-protected log entry codec, and byte movement through the simulated
// PM device. Fixed workloads make them comparable across PRs.
type DataStats struct {
	// LZWCompressMBps compresses the mixed 1 MiB corpus (zero-heavy,
	// log-text, incompressible thirds).
	LZWCompressMBps float64 `json:"lzw_compress_mbps"`
	// LZWDecompressMBps decodes the corpus's compressed stream.
	LZWDecompressMBps float64 `json:"lzw_decompress_mbps"`
	// LogEncodePerSec encodes a 4 KiB write entry (header + CRC + copy).
	LogEncodePerSec float64 `json:"log_encode_entries_per_sec"`
	// LogDecodePerSec parses and CRC-checks the same entry.
	LogDecodePerSec float64 `json:"log_decode_entries_per_sec"`
	// PMWriteGBps streams 16 KiB write+persist pairs through the device.
	PMWriteGBps float64 `json:"pm_write_gbps"`
}

// DataBenchReport is the BENCH_dataplane.json schema, mirroring
// BENCH_kernel.json: a baseline column, this run's numbers, and speedups.
// The baseline is seedDataStats, recorded rather than re-measured, so the
// speedup column is this machine's current column against a recorded
// machine's seed column.
type DataBenchReport struct {
	Baseline DataStats `json:"baseline"`
	Current  DataStats `json:"current"`
	Speedup  DataStats `json:"speedup"`
	// SpeedupAggregate is the geometric mean of the four LZW and
	// log-codec speedups (the PM device column is reported but excluded:
	// its seed implementation is quadratic in pending writes, so its
	// speedup is unboundedly flattering).
	SpeedupAggregate float64 `json:"speedup_aggregate"`
	MeasuredAt       string  `json:"measured_at"`
}

// dataCorpus builds the 1 MiB measurement input: a simulated client log
// segment of wire-encoded entries — exactly the byte stream the chunk
// pipeline's compress stage sees. Payloads mix mostly-zero pages (cold
// file writes), patterned records, and incompressible bytes; namespace
// ops interleave the repetitive header text.
func dataCorpus() []byte {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 0, 1<<20)
	for seq := uint64(1); len(buf) < 1<<20; seq++ {
		e := fs.Entry{Seq: seq, Type: fs.OpWrite, Ino: fs.Ino(1 + rng.Intn(8))}
		switch rng.Intn(10) {
		case 0: // namespace op: header + name, no payload
			e.Type = fs.OpCreate
			e.PIno = 1
			e.Name = fmt.Sprintf("segment-%04d.dat", rng.Intn(64))
		case 1, 2: // incompressible page
			e.Off = uint64(rng.Intn(1 << 20))
			e.Data = make([]byte, 1+rng.Intn(4096))
			rng.Read(e.Data)
		case 3, 4, 5: // patterned record batch
			e.Off = uint64(rng.Intn(1 << 20))
			rec := fmt.Sprintf("inode=%06d off=%06d len=%05d ", rng.Intn(512), rng.Intn(1<<20), rng.Intn(65536))
			e.Data = bytes.Repeat([]byte(rec), 1+rng.Intn(64))
		default: // cold file page: zeros with a handful of dirty bytes
			e.Off = uint64(rng.Intn(1 << 20))
			e.Data = make([]byte, 1+rng.Intn(4096))
			for i := rng.Intn(8); i > 0; i-- {
				e.Data[rng.Intn(len(e.Data))] = byte(rng.Intn(256))
			}
		}
		buf = e.AppendWire(buf)
	}
	return buf[:1<<20]
}

// benchEntry is the 4 KiB write entry both log-codec columns encode.
func benchEntry() *fs.Entry {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(data)
	return &fs.Entry{Seq: 5, Type: fs.OpWrite, Ino: 3, Off: 8192, Data: data}
}

// rate runs f in a timed loop after one warmup call and returns
// (iterations/sec, allocs/op). minTime bounds the measurement window, so a
// smoke run can use a few milliseconds and CI stays fast — but never under
// eight iterations: the callers' gates allow stray runtime allocations (a
// timer heap growing, a sudog) below one per op, which tells nothing apart
// over the single LZW pass a loaded machine fits into 25 ms.
func rate(minTime time.Duration, f func()) (persec, allocsPerOp float64) {
	f()          // warmup: size scratch buffers, fault pages
	runtime.GC() // drain garbage from prior metrics so GC pauses don't leak across columns
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n < 8 || time.Since(start) < minTime {
		f()
		n++
	}
	el := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return float64(n) / el, float64(after.Mallocs-before.Mallocs) / float64(n)
}

// seedDataStats is the seed (PR 0) column — a map-backed LZW dictionary, a
// fresh buffer and Entry per log entry, an overlay-list PM — as measured on
// 2026-09-26 by the last binary that carried those implementations
// (BENCH_dataplane.json's baseline). They were wall-clock numbers, measured
// back to back with the current column; frozen, the ratio is no longer
// immune to machine-speed drift. The seed LZW codec survives as the test
// oracle in internal/compress/reference_test.go.
var seedDataStats = DataStats{
	LZWCompressMBps:   24.546645394684987,
	LZWDecompressMBps: 145.04067809404003,
	LogEncodePerSec:   854645.0911828105,
	LogDecodePerSec:   596767.1789392576,
	PMWriteGBps:       4.3021700500558735,
}

// dataMetric is one row of the report: the measurement loop, the
// per-iteration work in the metric's unit (bytes for throughput rows, 1 for
// entries/sec), and the field it fills.
type dataMetric struct {
	name  string
	loop  func()
	unit  float64
	store func(st *DataStats, v float64)
}

// MeasureDataBench measures the data-plane implementations over the fixed
// corpus against the recorded seed column, asserting each loop runs at
// 0 allocs/op steady state. minTime is the per-loop measurement window.
func MeasureDataBench(minTime time.Duration) (DataBenchReport, error) {
	var rep DataBenchReport
	corpus := dataCorpus()

	enc := compress.NewEncoder()
	stream := enc.CompressInto(nil, corpus)
	dec := compress.NewDecoder()
	out, rerr := dec.DecompressInto(nil, stream)
	if rerr != nil || !bytes.Equal(out, corpus) {
		return rep, fmt.Errorf("databench: corpus round trip failed: %v", rerr)
	}

	e := benchEntry()
	scratch := e.AppendWire(nil)
	var decoded fs.Entry

	// The PM device is driven with the digest path's access pattern: a burst
	// of block writes into a log window, then one persist over the whole
	// window.
	const pmWindow = 64
	blk := corpus[:16<<10]
	pm := hw.NewPM(sim.NewEnv(1), "pm", hw.PMConfig{Size: 64 << 20, Bandwidth: 1e9})
	pmOff := int64(0)

	metrics := []dataMetric{
		{
			name:  "lzw compress",
			loop:  func() { stream = enc.CompressInto(stream[:0], corpus) },
			unit:  float64(len(corpus)) / 1e6,
			store: func(st *DataStats, v float64) { st.LZWCompressMBps = v },
		},
		{
			name: "lzw decompress",
			loop: func() {
				var err error
				if out, err = dec.DecompressInto(out[:0], stream); err != nil {
					panic(err)
				}
			},
			unit:  float64(len(corpus)) / 1e6,
			store: func(st *DataStats, v float64) { st.LZWDecompressMBps = v },
		},
		{
			name:  "log encode",
			loop:  func() { scratch = e.AppendWire(scratch[:0]) },
			unit:  1,
			store: func(st *DataStats, v float64) { st.LogEncodePerSec = v },
		},
		{
			name: "log decode",
			loop: func() {
				if _, err := fs.DecodeEntryInto(&decoded, scratch); err != nil {
					panic(err)
				}
			},
			unit:  1,
			store: func(st *DataStats, v float64) { st.LogDecodePerSec = v },
		},
		{
			name: "pm write",
			loop: func() {
				start := pmOff
				for i := 0; i < pmWindow; i++ {
					pm.WriteNoCost(pmOff, blk)
					pmOff += int64(len(blk))
				}
				pm.PersistNoCost(start, pmOff-start)
				if pmOff+int64(pmWindow*len(blk)) > pm.Size() {
					pmOff = 0
				}
			},
			unit:  float64(pmWindow*len(blk)) / 1e9,
			store: func(st *DataStats, v float64) { st.PMWriteGBps = v },
		},
	}

	base := seedDataStats
	var cur DataStats
	for _, m := range metrics {
		persec, allocs := rate(minTime, m.loop)
		// The timed loop itself is alloc-free; anything counted came from
		// the measured path. Tolerate stray runtime allocations (background
		// sweeps) below one per op, never a per-op allocation.
		if allocs >= 1 {
			return rep, fmt.Errorf("databench: %s steady state allocates (%.1f allocs/op, want 0)", m.name, allocs)
		}
		m.store(&cur, persec*m.unit)
	}
	rep = DataBenchReport{
		Baseline: base,
		Current:  cur,
		Speedup: DataStats{
			LZWCompressMBps:   cur.LZWCompressMBps / base.LZWCompressMBps,
			LZWDecompressMBps: cur.LZWDecompressMBps / base.LZWDecompressMBps,
			LogEncodePerSec:   cur.LogEncodePerSec / base.LogEncodePerSec,
			LogDecodePerSec:   cur.LogDecodePerSec / base.LogDecodePerSec,
			PMWriteGBps:       cur.PMWriteGBps / base.PMWriteGBps,
		},
		MeasuredAt: time.Now().UTC().Format(time.RFC3339),
	}
	rep.SpeedupAggregate = math.Pow(rep.Speedup.LZWCompressMBps*rep.Speedup.LZWDecompressMBps*
		rep.Speedup.LogEncodePerSec*rep.Speedup.LogDecodePerSec, 0.25)
	return rep, nil
}

// WriteDataBench measures the data plane and writes the report to path.
func WriteDataBench(path string, minTime time.Duration) (DataBenchReport, error) {
	rep, err := MeasureDataBench(minTime)
	if err != nil {
		return rep, err
	}
	return rep, writeReport(path, rep)
}

// writeReport writes a BENCH_*.json report: indented, newline-terminated.
func writeReport(path string, rep any) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
