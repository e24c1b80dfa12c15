package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestScriptedSession drives the shell from a string through every command
// group — namespace, data, durability, a host crash and its recovery — and
// through the three ways to mistype one. It checks the read-back bytes, that
// status names the crashed host once the detector has had its second, and
// that a bad line prints an error and the session goes on to quit.
func TestScriptedSession(t *testing.T) {
	t.Parallel()
	script := strings.Join([]string{
		"mkdir /d",
		"create /d/a",
		"write /d/a 0 hello wide world",
		"fsync /d/a",
		"read /d/a 6 4",
		"ls /d",
		"stat /d/a",
		"mv /d/a /d/b",
		"ls /d",
		"rm /d/b",
		"stat /d/b",
		"crash 1",
		"sleep 1",
		"status",
		"recover 1",
		"sleep 1",
		"status",
		"frobnicate /d",
		"write /d/a",
		"read /d/a 0 -1",
		"crash 7",
		"quit",
		"create /never-reached",
	}, "\n")
	var out bytes.Buffer
	if err := run(strings.NewReader(script), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	status := strings.SplitN(got, "host OS up", 2)
	if len(status) != 2 {
		t.Fatalf("no recovery in the session:\n%s", got)
	}
	for _, want := range []string{
		"  wrote 16 bytes\n",
		"  durable on all replicas in ",
		"  \"wide\"\n",
		"  a\n",
		"  /d/a: file, 16 bytes\n",
		"  b\n",
		"  node 1 host OS down\n",
		"  node1 [NICFS isolated: host down]\n",
		"unknown command \"frobnicate\" (try help)\n",
		"usage: write <path> <off> <text>\n",
		"usage: read <path> <off> <n>\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("session output lacks %q", want)
		}
	}
	if strings.Contains(status[1], "isolated") || !strings.Contains(status[1], "  node1\n") {
		t.Errorf("status after recovery still shows an isolated host:\n%s", status[1])
	}
	// stat of the removed file and crash of a node that does not exist.
	if n := strings.Count(got, "error: "); n != 2 {
		t.Errorf("%d error lines, want 2 (stat of a removed file, crash 7):\n%s", n, got)
	}
	if n := strings.Count(got, "linefs["); n != 22 {
		t.Errorf("%d prompts, want 22: the session must stop at quit", n)
	}
}

// TestEndOfInputEndsTheSession: no quit, no trailing newline.
func TestEndOfInputEndsTheSession(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	if err := run(strings.NewReader("create /a\nstat /a"), &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "  /a: file, 0 bytes\n") {
		t.Errorf("unexpected output:\n%s", got)
	}
}
