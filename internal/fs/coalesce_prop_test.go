package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"linefs/internal/hw"
	"linefs/internal/sim"
)

// TestCoalescePreservesFinalState is the core property of the coalescing
// stage: applying the coalesced entry stream to a fresh volume must produce
// exactly the same published state as applying the original stream.
func TestCoalescePreservesFinalState(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		entries := randomBatch(rng)

		stateA, errA := applyBatch(t, entries)
		kept, _ := Coalesce(entries)
		stateB, errB := applyBatch(t, kept)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: original err=%v coalesced err=%v", seed, errA, errB)
		}
		if errA != nil {
			continue
		}
		if !bytes.Equal(stateA, stateB) {
			t.Fatalf("seed %d: coalesced application diverged (%d ops -> %d kept)",
				seed, len(entries), len(kept))
		}
	}
}

// randomBatch generates a plausible client batch: creates, writes,
// overwrites, renames and unlinks over a small set of inodes.
func randomBatch(rng *rand.Rand) []*Entry {
	var entries []*Entry
	var seq uint64
	created := map[Ino]string{}
	nextIno := Ino(100)
	emit := func(e *Entry) {
		e.Seq = seq
		seq++
		entries = append(entries, e)
	}
	for i := 0; i < 40; i++ {
		switch rng.Intn(5) {
		case 0: // create
			name := fmt.Sprintf("f%d", nextIno)
			emit(&Entry{Type: OpCreate, Ino: nextIno, PIno: RootIno, Name: name})
			created[nextIno] = name
			nextIno++
		case 1, 2: // write to a live file
			if len(created) == 0 {
				continue
			}
			ino := pick(rng, created)
			data := make([]byte, 128+rng.Intn(4096))
			rng.Read(data)
			off := uint64(rng.Intn(4)) * 4096
			emit(&Entry{Type: OpWrite, Ino: ino, Off: off, Data: data})
		case 3: // overwrite the exact same range (coalescing target)
			if len(created) == 0 {
				continue
			}
			ino := pick(rng, created)
			data := make([]byte, 512)
			rng.Read(data)
			emit(&Entry{Type: OpWrite, Ino: ino, Off: 0, Data: data})
			data2 := make([]byte, 512)
			rng.Read(data2)
			emit(&Entry{Type: OpWrite, Ino: ino, Off: 0, Data: data2})
		case 4: // unlink (sometimes completing a create+unlink pair)
			if len(created) == 0 {
				continue
			}
			ino := pick(rng, created)
			emit(&Entry{Type: OpUnlink, Ino: ino, PIno: RootIno, Name: created[ino]})
			delete(created, ino)
		}
	}
	return entries
}

func pick(rng *rand.Rand, m map[Ino]string) Ino {
	keys := make([]Ino, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Deterministic order for reproducibility.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[rng.Intn(len(keys))]
}

// applyBatch applies entries to a fresh volume and returns a digest of the
// resulting public state (directory listing + file contents).
func applyBatch(t *testing.T, entries []*Entry) ([]byte, error) {
	t.Helper()
	e := sim.NewEnv(1)
	pm := hw.NewPM(e, "pm", hw.DefaultPMConfig(64<<20))
	v, err := Format(e, pm, 0, 32<<20, 1024)
	if err != nil {
		t.Fatal(err)
	}
	c := NoCostCtx(pm)
	if err := v.ApplyAll(c, entries, nil); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	ents, err := v.DirList(c, RootIno)
	if err != nil {
		t.Fatal(err)
	}
	// Sort entries by name for a stable digest.
	for i := 1; i < len(ents); i++ {
		for j := i; j > 0 && ents[j].Name < ents[j-1].Name; j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
	for _, de := range ents {
		in, err := v.ReadInode(c, de.Ino)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %d %d\n", de.Name, de.Ino, in.Size)
		data := make([]byte, in.Size)
		if _, err := v.ReadFile(c, de.Ino, 0, data); err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	return buf.Bytes(), nil
}
