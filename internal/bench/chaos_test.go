package bench

import (
	"io"
	"strings"
	"testing"
)

// TestChaosPlanCoversHostCrash pins the pinned smoke seed: seed 42's
// schedule must contain a host crash so the mid-schedule crash/recover path
// stays exercised by TestChaosSmoke. If plan generation changes, pick a new
// seed whose schedule crashes a host and update both tests.
func TestChaosPlanCoversHostCrash(t *testing.T) {
	t.Parallel()
	plan := genChaosPlan(42)
	for _, f := range plan.faults {
		if f.kind == faultHostCrash {
			return
		}
	}
	t.Fatal("seed 42's schedule no longer crashes a host; pick a new pinned seed")
}

// TestChaosSmoke runs a handful of full chaos schedules — starting at the
// pinned host-crash seed — end to end: all four invariants (acked
// durability, replica convergence, clean drain, digest reproducibility)
// must hold.
func TestChaosSmoke(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if bad := Chaos(Options{Quick: true, Seed: 42}, 3, -1, &out, io.Discard); bad != 0 {
		t.Fatalf("%d chaos schedule(s) violated invariants:\n%s", bad, out.String())
	}
}
