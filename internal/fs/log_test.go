package fs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

func newTestLog(t *testing.T, size int64) (*LogArea, *Ctx) {
	t.Helper()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(size+1<<20))
	return NewLogArea(pm, 0, size), NoCostCtx(pm)
}

func TestEntryEncodeDecode(t *testing.T) {
	t.Parallel()
	e := &Entry{
		Seq: 7, Type: OpRename, Ino: 3, PIno: 1, PIno2: 2,
		Off: 4096, Name: "old", Name2: "newname", Data: []byte("payload"),
	}
	wire := e.AppendWire(nil)
	if len(wire) != e.WireSize() || len(wire)%8 != 0 {
		t.Fatalf("wire len = %d, WireSize = %d", len(wire), e.WireSize())
	}
	got := &Entry{}
	n, err := DecodeEntryInto(got, wire)
	if err != nil || n != len(wire) {
		t.Fatalf("decode: %v, n=%d", err, n)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("got %+v, want %+v", got, e)
	}
}

func TestEntryDecodeQuick(t *testing.T) {
	t.Parallel()
	f := func(seq uint64, ino, pino uint32, off uint64, name string, data []byte) bool {
		if len(name) > 1<<15 {
			name = name[:1<<15]
		}
		e := &Entry{Seq: seq, Type: OpWrite, Ino: Ino(ino), PIno: Ino(pino), Off: off, Name: name, Data: data}
		got := &Entry{}
		if _, err := DecodeEntryInto(got, e.AppendWire(nil)); err != nil {
			return false
		}
		if got.Data == nil {
			got.Data = []byte{}
		}
		if e.Data == nil {
			e.Data = []byte{}
		}
		return got.Seq == e.Seq && got.Ino == e.Ino && got.Off == e.Off &&
			got.Name == e.Name && bytes.Equal(got.Data, e.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryCRCDetectsCorruption(t *testing.T) {
	t.Parallel()
	e := &Entry{Type: OpWrite, Ino: 3, Data: []byte("data")}
	var got Entry
	wire := e.AppendWire(nil)
	wire[entryHdrSize] ^= 0xff
	if _, err := DecodeEntryInto(&got, wire); err != ErrBadCRC {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
	if _, err := DecodeEntryInto(&got, wire[:10]); err != ErrShort {
		t.Fatalf("short err = %v", err)
	}
	wire2 := e.AppendWire(nil)
	wire2[0] = 0
	if _, err := DecodeEntryInto(&got, wire2); err != ErrBadMagic {
		t.Fatalf("magic err = %v", err)
	}
}

func TestLogAppendDecode(t *testing.T) {
	t.Parallel()
	l, c := newTestLog(t, 1<<20)
	var offs []uint64
	for i := 0; i < 10; i++ {
		e := &Entry{Type: OpWrite, Ino: 5, Off: uint64(i * 100), Data: bytes.Repeat([]byte{byte(i)}, 100)}
		at, err := l.Append(c, e)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, at)
		if e.Seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", e.Seq, i)
		}
	}
	got, _, err := l.DecodeRangeScratch(c, nil, offs[0], l.Head())
	if err != nil || len(got) != 10 {
		t.Fatalf("decode: %d entries, %v", len(got), err)
	}
	for i, e := range got {
		if e.Seq != uint64(i) || e.Off != uint64(i*100) {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
}

func TestLogFullAndReclaim(t *testing.T) {
	t.Parallel()
	l, c := newTestLog(t, 3*BlockSize)
	e := &Entry{Type: OpWrite, Ino: 1, Data: make([]byte, 1000)}
	var appended int
	for {
		if _, err := l.Append(c, e); err != nil {
			if err != ErrLogFull {
				t.Fatal(err)
			}
			break
		}
		appended++
	}
	if appended == 0 {
		t.Fatal("nothing fit")
	}
	// Reclaim everything; appends work again.
	l.Reclaim(c, l.Head())
	if _, err := l.Append(c, e); err != nil {
		t.Fatalf("append after reclaim: %v", err)
	}
}

func TestLogRingWraparound(t *testing.T) {
	t.Parallel()
	l, c := newTestLog(t, 3*BlockSize)
	// Fill, reclaim, fill repeatedly so entries cross the physical end.
	seq := uint64(0)
	for round := 0; round < 20; round++ {
		start := l.Head()
		for i := 0; i < 3; i++ {
			e := &Entry{Type: OpWrite, Ino: 1, Off: seq, Data: bytes.Repeat([]byte{byte(seq)}, 777)}
			if _, err := l.Append(c, e); err != nil {
				t.Fatalf("round %d append %d: %v", round, i, err)
			}
			seq++
		}
		got, _, err := l.DecodeRangeScratch(c, nil, start, l.Head())
		if err != nil || len(got) != 3 {
			t.Fatalf("round %d: decode %d entries, %v", round, len(got), err)
		}
		for _, e := range got {
			if e.Data[0] != byte(e.Off) {
				t.Fatalf("round %d: payload mismatch", round)
			}
		}
		l.Reclaim(c, l.Head())
	}
}

func TestLogCrashRecoveryPrefix(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(1<<20))
	l := NewLogArea(pm, 0, 1<<19)
	var persistedHead uint64
	e.Go("writer", func(p *sim.Proc) {
		c := &Ctx{P: p, PM: pm}
		for i := 0; i < 5; i++ {
			ent := &Entry{Type: OpWrite, Ino: 2, Off: uint64(i), Data: []byte("0123456789")}
			if _, err := l.Append(c, ent); err != nil {
				t.Errorf("append: %v", err)
			}
		}
		persistedHead = l.Head()
	})
	e.Run()
	// Crash: all appends were persisted via the context, so recovery sees
	// all five.
	pm.Crash()
	c := NoCostCtx(pm)
	l2, err := OpenLogArea(c, 0, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != persistedHead {
		t.Fatalf("recovered head = %d, want %d", l2.Head(), persistedHead)
	}
	ents, _, err := l2.DecodeRangeScratch(c, nil, l2.Tail(), l2.Head())
	if err != nil || len(ents) != 5 {
		t.Fatalf("recovered %d entries, %v", len(ents), err)
	}
}

func TestLogCrashDropsUnpersistedSuffix(t *testing.T) {
	t.Parallel()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(1<<20))
	l := NewLogArea(pm, 0, 1<<19)
	c := NoCostCtx(pm)
	for i := 0; i < 3; i++ {
		l.Append(c, &Entry{Type: OpWrite, Ino: 2, Data: []byte("persisted")})
	}
	headBefore := l.Head()
	// An append whose bytes were written but never persisted: write raw
	// without the persist barrier, emulating a crash mid-append.
	torn := (&Entry{Seq: l.seq, Type: OpWrite, Ino: 2, Data: []byte("torn")}).AppendWire(nil)
	pm.WriteNoCost(l.SegmentAt(l.head, len(torn)).PhysOff, torn)
	pm.Crash()

	l2, err := OpenLogArea(c, 0, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Head() != headBefore {
		t.Fatalf("head = %d, want %d (torn append invisible)", l2.Head(), headBefore)
	}
	ents, _, err := l2.DecodeRangeScratch(c, nil, l2.Tail(), l2.Head())
	if err != nil || len(ents) != 3 {
		t.Fatalf("prefix = %d entries, %v", len(ents), err)
	}
}

func TestMirrorRaw(t *testing.T) {
	t.Parallel()
	lp, cp := newTestLog(t, 1<<19)
	lr, cr := newTestLog(t, 1<<19)
	for i := 0; i < 4; i++ {
		lp.Append(cp, &Entry{Type: OpWrite, Ino: 1, Off: uint64(i), Data: []byte("chunk-entry")})
	}
	raw := make([]byte, lp.Head())
	lp.ReadRawInto(cp, 0, raw)
	if err := lr.MirrorRaw(cr, 0, raw); err != nil {
		t.Fatal(err)
	}
	ents, _, err := lr.DecodeRangeScratch(cr, nil, 0, lr.Head())
	if err != nil || len(ents) != 4 {
		t.Fatalf("replica decode: %d, %v", len(ents), err)
	}
	// A gap is rejected.
	if err := lr.MirrorRaw(cr, lr.Head()+64, raw); err == nil {
		t.Fatal("gap accepted")
	}
}

func TestDecodeAllStopsAtGarbage(t *testing.T) {
	t.Parallel()
	good := (&Entry{Type: OpWrite, Ino: 1, Data: []byte("ok")}).AppendWire(nil)
	garbage := bytes.Repeat([]byte{0xEE}, 64)
	ents, err := DecodeAll(append(append([]byte{}, good...), garbage...), new(EntryList))
	if err == nil {
		t.Fatal("garbage accepted")
	}
	if len(ents) != 1 {
		t.Fatalf("decoded %d entries before garbage", len(ents))
	}
}

func TestLogAppendRandomSizes(t *testing.T) {
	t.Parallel()
	l, c := newTestLog(t, 1<<20)
	rng := rand.New(rand.NewSource(5))
	var want []uint64
	for i := 0; i < 200; i++ {
		n := rng.Intn(2000)
		e := &Entry{Type: OpWrite, Ino: 1, Off: uint64(n), Data: make([]byte, n)}
		if _, err := l.Append(c, e); err == ErrLogFull {
			l.Reclaim(c, l.Head())
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		want = append(want, uint64(n))
	}
	_ = want
}
