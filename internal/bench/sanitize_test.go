package bench

import (
	"strings"
	"testing"
)

// TestDigestGolden is the sanitizer's golden test: two complete runs of a
// representative experiment (fig5, the replication-pipeline latency
// breakdown — it exercises LineFS end to end: log writes, fetch, validate,
// publish, transfer) must fold the exact same event sequence into the same
// digest and render byte-identical tables.
func TestDigestGolden(t *testing.T) {
	t.Parallel()
	e, ok := Find("fig5")
	if !ok {
		t.Fatal("experiment fig5 not registered")
	}
	opts := DefaultOptions()
	d1, n1, res1, err := DigestOf(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, n2, res2, err := DigestOf(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || n1 != n2 {
		t.Fatalf("identical runs diverged: digest %016x over %d events vs %016x over %d events",
			uint64(d1), n1, uint64(d2), n2)
	}
	if d1 == 0 || n1 == 0 {
		t.Fatalf("degenerate digest %016x over %d events (sanitizer not attached?)", uint64(d1), n1)
	}
	var b1, b2 strings.Builder
	res1.Print(&b1)
	res2.Print(&b2)
	if b1.String() != b2.String() {
		t.Fatalf("identical runs rendered different tables:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			b1.String(), b2.String())
	}
}

// TestDigestDistinguishesExperiments checks the fold actually covers the
// event stream rather than collapsing to a constant: two experiments with
// different schedules must digest differently. (Seed sensitivity is pinned
// at the kernel level in internal/sim/trace_test.go; it cannot be asserted
// here on a fixed experiment, because quick-scale runs that never saturate
// the host cores draw no jitter randomness and are legitimately
// seed-independent.)
func TestDigestDistinguishesExperiments(t *testing.T) {
	t.Parallel()
	e1, _ := Find("fig5")
	e2, _ := Find("fig8a")
	opts := DefaultOptions()
	d1, n1, _, err := DigestOf(e1, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, n2, _, err := DigestOf(e2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 || n1 == n2 {
		t.Fatalf("distinct experiments produced digest %016x/%d events vs %016x/%d events",
			uint64(d1), n1, uint64(d2), n2)
	}
}
