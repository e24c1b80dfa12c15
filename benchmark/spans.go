package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one traced interval. Virtual and host clocks are recorded side by
// side; host times are nanoseconds since the child started. Op is the
// issuing client's operation number (shared by everything one client call
// causes) or -1 for phases and probes. Parent is a span ID, -1 at the top.
type span struct {
	ID, Parent int32
	Op         int64
	Layer      string
	Name       string
	SimStart   int64
	SimEnd     int64
	HostStart  int64
	HostEnd    int64
}

// recorder keeps spans in a preallocated slice and writes them out once, at
// exit. A nil recorder is tracing off: every call site is one branch.
type recorder struct {
	spans []span
	t0    time.Time
}

func newRecorder(t0 time.Time, capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity), t0: t0}
}

func (r *recorder) host() int64 { return int64(time.Since(r.t0)) }

// open starts a span and returns its ID; close stamps its end.
func (r *recorder) open(parent int32, op int64, layer, name string, simNow int64) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		SimStart: simNow, HostStart: r.host()})
	return id
}

func (r *recorder) close(id int32, simNow int64) {
	r.spans[id].SimEnd = simNow
	r.spans[id].HostEnd = r.host()
}

// add records an already-finished span.
func (r *recorder) add(s span) {
	s.ID = int32(len(r.spans))
	r.spans = append(r.spans, s)
}

// simSelfTimes returns, per span, its virtual duration minus the part its
// direct children cover. The children of one client span do not overlap, so
// the subtraction is exact there; a phase root with parallel clients can go
// negative and is clamped to zero.
func (r *recorder) simSelfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.SimEnd - s.SimStart
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.SimEnd - s.SimStart
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// writeJSON writes the span file: one JSON array, one span per line.
func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	for i, s := range r.spans {
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"layer":%q,"name":%q,"sim_start":%d,"sim_end":%d,"host_start":%d,"host_end":%d}%s`+"\n",
			s.ID, s.Parent, s.Op, s.Layer, s.Name, s.SimStart, s.SimEnd, s.HostStart, s.HostEnd, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
