package bench

import (
	"strconv"
	"strings"
	"testing"
)

// TestFig9Shape pins Figure 9's shape at quick scale (about 4 s): LineFS's
// network-byte savings over Assise grow with the data's compressibility and
// sit within 5 points of 19/35/55 % at 40/60/80 % zeros, and the most
// compressible sort runs within 1.5x of Assise's runtime (the paper has
// LineFS ~11 % faster there; 49.8 vs 42.0 ms when this was written, 108.9
// while a fsync tail's sub-blocks left most NIC cores idle).
func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("four sort runs at quick scale, about 4 s")
	}
	t.Parallel()
	res, err := Fig9(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	num := func(row, col int) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(res.Rows[row][col], "%"), 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, col, err)
		}
		return v
	}
	prev := 0.0
	for i, want := range []float64{19, 35, 55} {
		saving := -num(i+1, 3)
		if saving <= prev || saving < want-5 || saving > want+5 {
			t.Errorf("%s saves %.0f%% of Assise's network bytes, want %.0f ± 5 and more than %.0f",
				res.Rows[i+1][0], saving, want, prev)
		}
		prev = saving
	}
	if assise, lineFS := num(0, 1), num(3, 1); lineFS > 1.5*assise {
		t.Errorf("LineFS-80%% runs %.1f ms against Assise's %.1f, want at most 1.5x", lineFS, assise)
	}
}
