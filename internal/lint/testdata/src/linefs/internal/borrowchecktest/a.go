// Package borrowchecktest seeds borrowcheck violations: borrowed decode
// results escaping the borrow window.
package borrowchecktest

import (
	"linefs/internal/fs"
	"linefs/internal/sim"
)

var sink []byte

type server struct {
	entries []*fs.Entry
	data    []byte
	first   *fs.Entry
}

func storeField(s *server, raw []byte) error {
	entries, err := fs.DecodeAll(raw)
	if err != nil {
		return err
	}
	s.entries = entries // want `borrowed entries stored to s\.entries`
	return nil
}

func storeIndexed(s *server, raw []byte) {
	entries, _ := fs.DecodeAll(raw)
	e := entries[0]
	s.first = e // want `borrowed entry stored to s\.first`
}

func storeGlobal(raw []byte) {
	entries, _ := fs.DecodeAll(raw)
	for _, e := range entries {
		sink = e.Data // want `borrowed bytes stored to package-level sink`
	}
}

func returned(la *fs.LogArea, ctx *fs.Ctx) ([]*fs.Entry, error) {
	entries, _, err := la.DecodeRangeScratch(ctx, nil, 0, 0)
	return entries, err // want `borrowed entries \(entries\) returned`
}

func sent(ch chan *fs.Entry, raw []byte) {
	entries, _ := fs.DecodeAll(raw)
	ch <- entries[0] // want `borrowed entry \(entries\[\.\.\.\]\) sent on a channel`
}

func mailbox(q *sim.Queue, p *sim.Proc, raw []byte) {
	entries, _ := fs.DecodeAll(raw)
	e := entries[0]
	q.Put(p, e) // want `borrowed entry \(e\) passed to Put, which retains it`
}

func captured(e *sim.Env, raw []byte) {
	entries, _ := fs.DecodeAll(raw)
	e.Go("worker", func(p *sim.Proc) {
		_ = entries // want `borrowed entries entries captured by a function literal`
	})
}

func visitLeak(la *fs.LogArea, ctx *fs.Ctx, s *server) {
	_, _ = la.VisitRange(ctx, nil, 0, 0, func(e *fs.Entry) error {
		sink = e.Data // want `borrowed bytes stored to package-level sink`
		return nil
	})
}

func intoLeak(s *server, raw []byte) {
	var e fs.Entry
	_, _ = fs.DecodeEntryInto(&e, raw)
	s.data = e.Data // want `borrowed bytes stored to s\.data`
}

// copyOut is the sanctioned escape: spreading borrowed bytes into an owned
// buffer copies them, and scalar/string fields are owned.
func copyOut(s *server, raw []byte) (string, error) {
	var e fs.Entry
	if _, err := fs.DecodeEntryInto(&e, raw); err != nil {
		return "", err
	}
	s.data = append([]byte(nil), e.Data...)
	name := e.Name
	seq := e.Seq
	_ = seq
	return name, nil
}

// rebind clears an entry's taint by replacing Data with owned bytes.
func rebind(raw []byte) *fs.Entry {
	var e fs.Entry
	_, _ = fs.DecodeEntryInto(&e, raw)
	e.Data = append([]byte(nil), e.Data...)
	return &e
}

// locals may hold borrowed data freely inside the window.
func localsOK(raw []byte) int {
	entries, _ := fs.DecodeAll(raw)
	total := 0
	for _, e := range entries {
		d := e.Data
		total += len(d)
	}
	return total
}

// allowedReturn documents a borrowing API with a directive on the line
// above a multi-line expression (the framework's line-above rule).
func allowedReturn(raw []byte, more []*fs.Entry) []*fs.Entry {
	entries, _ := fs.DecodeAll(raw)
	//lint:allow borrowcheck returned batch is documented as borrowing raw
	return append(
		entries,
		more...,
	)
}
