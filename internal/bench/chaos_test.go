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

// chaosLargeTailPlan is seed's schedule with every client's paced rounds
// ending in one more: 1 MiB under a single fsync, which goes down the chain as
// four pieces (the random schedules' rounds are under 26 KiB, one piece each).
func chaosLargeTailPlan(seed int64) *chaosPlan {
	plan := genChaosPlan(seed)
	for ci := range plan.rounds {
		plan.rounds[ci] = append(plan.rounds[ci], 1<<20)
		plan.gaps[ci] = append(plan.gaps[ci], 0)
	}
	return plan
}

// TestChaosLargeFsyncTail runs the pinned large-tail schedule. Seed 58 crashes
// a replica host, partitions the first hop, then drops, duplicates and
// corrupts a fifth of its frames each until 1.41 s, which is when the tails go
// out: their pieces are lost, rejected and resent in flight, and all four
// invariants must hold with both tails acknowledged. If plan generation
// changes, pick a new seed whose tails meet resends.
func TestChaosLargeFsyncTail(t *testing.T) {
	t.Parallel()
	plan := chaosLargeTailPlan(58)
	r, _, vs := chaosTwice(plan)
	if len(vs) > 0 {
		t.Fatalf("large-tail schedule violated invariants:\n%s", strings.Join(vs, "\n"))
	}
	var want int64
	for _, sizes := range plan.rounds {
		for _, sz := range sizes {
			want += int64(sz)
		}
	}
	if r.acked != want || r.bigResends == 0 {
		t.Errorf("%d of %d bytes acked, %d resends while a tail was out; want every byte and at least one resend",
			r.acked, want, r.bigResends)
	}
}
