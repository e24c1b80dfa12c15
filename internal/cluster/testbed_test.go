package cluster

import (
	"reflect"
	"strings"
	"testing"

	"linefs/internal/fs"
	"linefs/internal/sim"
)

func smallLayout() Layout {
	l := DefaultLayout()
	l.Spec.PMSize, l.VolSize, l.LogSize, l.MaxClients = 16<<20, 8<<20, 2<<20, 2
	l.InodesPerVol = 2048
	return l
}

// TestTestbedValidation: the two ways a layout cannot be deployed are
// rejected before a machine is built, for either DFS.
func TestTestbedValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Layout)
		want string
	}{
		{"chain longer than the cluster", func(l *Layout) { l.Replicas = l.Nodes }, "replicas need more than"},
		{"volume and log slots overflow PM", func(l *Layout) { l.MaxClients = 5 }, "PM too small"},
	} {
		l := smallLayout()
		c.edit(&l)
		if _, err := NewTestbed(sim.NewEnv(1), l); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewTestbed = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestTestbedSlotsAndGeometry: slots are handed out in order once the
// testbed has begun, each remembers its machine, and chains and log areas
// are where both daemons expect them.
func TestTestbedSlotsAndGeometry(t *testing.T) {
	l := smallLayout()
	tb, err := NewTestbed(sim.NewEnv(1), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Machines) != l.Nodes || len(tb.Vols) != l.Nodes || tb.Mgr == nil {
		t.Fatalf("%d machines, %d volumes, manager %v", len(tb.Machines), len(tb.Vols), tb.Mgr)
	}
	if _, err := tb.NewSlot(0); err == nil {
		t.Error("NewSlot before Begin succeeded")
	}
	if !tb.Begin() || tb.Begin() {
		t.Error("Begin: want true the first time and false after")
	}
	for want, machine := range []int{2, 0} {
		if slot, err := tb.NewSlot(machine); err != nil || slot != want {
			t.Errorf("NewSlot(%d) = %d, %v; want slot %d", machine, slot, err, want)
		}
	}
	if _, err := tb.NewSlot(1); err == nil || !strings.Contains(err.Error(), "client slots exhausted") {
		t.Errorf("third NewSlot on two slots = %v", err)
	}
	if m, ok := tb.SlotMachine(0); !ok || m != 2 {
		t.Errorf("SlotMachine(0) = %d, %v; want 2", m, ok)
	}
	for _, slot := range []int{-1, 2} {
		if _, ok := tb.SlotMachine(slot); ok {
			t.Errorf("SlotMachine(%d) found a client nobody attached", slot)
		}
	}
	if got := tb.Chain(2); !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Errorf("Chain(2) = %v, want it to wrap: [2 0 1]", got)
	}
	if got, want := tb.LogBase(1), l.VolSize+l.LogSize; got != want {
		t.Errorf("LogBase(1) = %d, want %d", got, want)
	}
	// 2 048 inodes hold 16 reserved and part of one 4 096-number range: slot
	// 0's stops at the table's end, and slot 1's is empty.
	if base, n := tb.InoRange(0); base != 16 || n != l.InodesPerVol-16 {
		t.Errorf("InoRange(0) = %d, %d; want 16, %d", base, n, l.InodesPerVol-16)
	}
	if base, n := tb.InoRange(1); base != 16+fs.Ino(l.InoRangePerClient) || n != 0 {
		t.Errorf("InoRange(1) = %d, %d; want %d, 0", base, n, 16+l.InoRangePerClient)
	}
	cfg := tb.LibFS(2, 1)
	if cfg.ID != "node2/c1" || cfg.Vol != tb.Vols[2] || cfg.ChunkSize != l.ChunkSize || cfg.LeaseTTL != LeaseTTL || cfg.Log != nil {
		t.Errorf("LibFS(2, 1) = %+v", cfg)
	}
}
