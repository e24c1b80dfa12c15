package bench

import (
	"strings"
	"testing"
	"time"

	"linefs/internal/dfs"
	"linefs/internal/sim"
	"linefs/internal/systems"
)

// TestRunClientsReturnsTheFirstError: a client that cannot attach ends its
// worker with the error, and the error is the run's — on every system, since
// the slot table is the testbed's. The experiments used to discard it and
// dereference the nil client inside a simulation process.
func TestRunClientsReturnsTheFirstError(t *testing.T) {
	t.Parallel()
	o := DefaultOptions()
	for _, kind := range systems.All() {
		sys, err := deploy(o, kind, o.layout(0), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		ran := false
		err = runClients(sys, "bench", 1, time.Second, func(*sim.Proc, *dfs.Client, int) error {
			ran = true
			return nil
		})
		sys.Env.Shutdown()
		if err == nil || !strings.Contains(err.Error(), "client slots exhausted") {
			t.Errorf("%v: runClients = %v, want client slots exhausted", kind, err)
		}
		if ran {
			t.Errorf("%v: the body ran without a client", kind)
		}
	}
}
