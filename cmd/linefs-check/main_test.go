package main

import (
	"bytes"
	"strings"
	"testing"

	"linefs/internal/systems"
)

// TestEverySpellingRuns drives the CLI once per -system spelling the table
// has: each must find its system and pass the create cases.
func TestEverySpellingRuns(t *testing.T) {
	t.Parallel()
	for _, kind := range systems.All() {
		var out, errOut bytes.Buffer
		if code := run([]string{"-system", kind.Flag(), "-run", "create"}, &out, &errOut); code != 0 {
			t.Errorf("-system %s exited %d:\n%s%s", kind.Flag(), code, out.String(), errOut.String())
		}
		if got := out.String(); !strings.Contains(got, "ok    create-read-write") || !strings.Contains(got, " 0 failed ("+kind.Flag()+")") {
			t.Errorf("-system %s: unexpected output:\n%s", kind.Flag(), got)
		}
	}
}

// TestUnknownSystemRunsNothing: a spelling the table does not have is
// rejected once, before any case runs, with the spellings it does have.
func TestUnknownSystemRunsNothing(t *testing.T) {
	t.Parallel()
	var out, errOut bytes.Buffer
	if code := run([]string{"-system", "linefs-parallel"}, &out, &errOut); code == 0 {
		t.Error("unknown -system exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown -system ran cases:\n%s", out.String())
	}
	if got := errOut.String(); !strings.Contains(got, `unknown system "linefs-parallel"`) || !strings.Contains(got, systems.Flags()) {
		t.Errorf("unknown -system: stderr %q does not name the spelling and the valid ones", got)
	}
}
