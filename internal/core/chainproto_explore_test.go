package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"
)

// The explorer drives chainproto.go's two machines the way the shells do,
// over a model of one slot's chain: a primary, replica 1 and replica 2, and
// 1–4 frames of one byte of log each, frame i over [i, i+1). Every
// connection is FIFO (a lane serves in arrival order, DESIGN.md §13); sync
// and bulk are separate connections, so frames of different classes cross.
// It walks every interleaving of arrivals at the sender (each pumped to
// idle, as runSender does), deliveries and retransmit timer ticks (while at
// most inflightCap messages are in flight), with up to k faults: drop,
// duplicate, corrupt (rejected at the gate), delay (one message leaves FIFO
// order) and a replica's NICFS restart, pruning by state hash. After every
// step it checks that
//  1. a frame released to the client is on both replicas;
//  2. each mirror log is the primary's log over [base, head): a replica only
//     persists the frame at its head, and never a corrupt one (base is 0, or
//     where a restarted mirror adopted);
//  3. no replica acks a frame it does not hold;
//  4. from the state, fault-free delivery and the timer release every frame.
// A replica holds what it persisted; a restart keeps that (PM outlives the
// NICFS) and adds what the other replica holds (Recover re-copies from a
// peer).

// Connections, and the model's steps (op, arg): each fuzz input is a
// sequence of them too.
const (
	cP1Bulk = iota // primary → replica 1
	cP1Sync
	c12Bulk // replica 1 → replica 2
	c12Sync
	c1Ack // replica 1 → primary
	c2Ack
	nConns
)

const (
	exArrive  = iota // a frame reaches the sender (arg: frame)
	exPump           // one pump step
	exDeliver        // a connection's head is delivered (arg: conn)
	exTick           // the retransmit timer fires
	exDrop           // faults from here on
	exDup
	exCorrupt
	exDelay   // arg: conn<<2 | index of the overtaking message
	exRestart // arg: replica
	exOps
)

var exOpNames = [exOps]string{"arrive", "pump", "deliver", "tick", "drop", "dup", "corrupt", "delay", "restart"}
var exConnNames = [nConns]string{"P→1 bulk", "P→1 sync", "1→2 bulk", "1→2 sync", "1→P ack", "2→P ack"}

// A data message is from | to<<3 | bad<<6 | sync<<7; an ack is its offset.
func exMsg(from, to uint64, sync bool) int {
	m := int(from | to<<3)
	if sync {
		m |= 1 << 7
	}
	return m
}

func exSpan(m int) (from, to uint64, bad, sync bool) {
	return uint64(m & 7), uint64(m >> 3 & 7), m&(1<<6) != 0, m&(1<<7) != 0
}

func exBits(from, to uint64) uint8 { return uint8(1<<to - 1<<from) }

// inflightCap bounds how many messages may be in flight for the timer to
// fire, which keeps the state space finite.
const inflightCap = 1

// exConf is a model: n frames, those in sync on the low-latency class, those
// in invalid rejected by validation (failChunk), never to go on the wire.
type exConf struct {
	n             int
	sync, invalid uint8
}

type exState struct {
	exConf
	snd  *chainSender[int]
	rcv  [3]*chainReceiver[int] // replicas 1 and 2
	conn [nConns][]int
	now  time.Duration

	arrived, released uint8
	held              [3]uint8  // frames each replica holds
	base, head        [3]uint64 // each mirror log's range
	faults, restarts  int
	viol              string
}

func newExState(cf exConf) *exState {
	s := &exState{exConf: cf, snd: &chainSender[int]{water: make([]uint64, 3), dead: make([]bool, 3)}}
	s.rcv[1] = &chainReceiver[int]{}
	s.rcv[2] = &chainReceiver[int]{tail: true}
	return s
}

func (s *exState) clone() *exState {
	c := *s
	snd := *s.snd
	snd.queued.held = cloneMap(s.snd.queued.held)
	snd.run = slices.Clone(s.snd.run)
	snd.win = slices.Clone(s.snd.win)
	snd.water = slices.Clone(s.snd.water)
	snd.dead = slices.Clone(s.snd.dead)
	snd.rerun, snd.out = nil, nil
	c.snd = &snd
	for r := 1; r <= 2; r++ {
		rc := *s.rcv[r]
		rc.held.held = cloneMap(s.rcv[r].held.held)
		rc.out = nil
		c.rcv[r] = &rc
	}
	for i := range c.conn {
		c.conn[i] = slices.Clone(s.conn[i])
	}
	return &c
}

func cloneMap(m map[uint64]span[int]) map[uint64]span[int] {
	if m == nil {
		return nil
	}
	c := make(map[uint64]span[int], len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// key is the state's hash: everything but the clock and what only times the
// timer (sentAt, the ack sample, the backoff), since a tick always comes late
// enough to resend. The window and the open run are contiguous ranges.
func (s *exState) key(b []byte) []byte {
	rng := func(sp []span[int]) {
		if len(sp) == 0 {
			b = append(b, 9, 9)
			return
		}
		b = append(b, byte(sp[0].from), byte(sp[len(sp)-1].to))
	}
	held := func(in inOrder[span[int]]) {
		b = append(b, byte(in.next))
		for k := uint64(0); k < 4; k++ {
			h, ok := in.held[k]
			b = append(b, byte(h.h), byte(h.to))
			if !ok {
				b[len(b)-1] = 9
			}
		}
	}
	sn := s.snd
	held(sn.queued)
	rng(sn.run)
	rng(sn.win)
	b = append(b, byte(sn.water[1]), byte(sn.water[2]), byte(sn.stuckAt))
	if sn.since != 0 {
		b = append(b, 1)
	}
	for r := 1; r <= 2; r++ {
		held(s.rcv[r].held)
		b = append(b, byte(s.base[r]), byte(s.head[r]), s.held[r])
		if s.rcv[r].fresh {
			b = append(b, 2)
		}
	}
	for _, c := range s.conn {
		b = append(b, 0xF0)
		for _, m := range c {
			b = append(b, byte(m))
		}
	}
	return append(b, s.arrived, s.released, byte(s.faults), byte(s.restarts))
}

// hash is key's 64-bit FNV-1a: the state sets hold hashes, not keys.
func (s *exState) hash() uint64 {
	var buf [96]byte
	h := fnv.New64a()
	h.Write(s.key(buf[:0]))
	return h.Sum64()
}

func (s *exState) inflight() (n int) {
	for _, c := range s.conn {
		n += len(c)
	}
	return n
}

// apply executes one step, returning false where it does not apply.
func (s *exState) apply(op, arg int) bool {
	switch op {
	case exArrive:
		if !s.arrivable(arg) {
			return false
		}
		s.arrived |= 1 << arg
		s.snd.queue(arg, uint64(arg), uint64(arg+1), 1, 400<<10, s.invalid&(1<<arg) == 0)
		s.apply(exPump, 0)
	case exPump: // to idle, as runSender does
		a := s.snd.pump()
		if a.op == opIdle {
			return false
		}
		for ; a.op != opIdle; a = s.snd.pump() {
			if a.op == opRelease {
				s.release(a.h)
				continue
			}
			s.send(s.snd.run)
			s.snd.sent(true, s.now)
		}
	case exDeliver, exDrop, exDup, exCorrupt:
		if arg >= nConns || len(s.conn[arg]) == 0 || op == exCorrupt && arg >= c1Ack {
			return false
		}
		m := s.conn[arg][0]
		if op != exDup {
			s.conn[arg] = s.conn[arg][1:]
		}
		if op == exCorrupt {
			m |= 1 << 6
		}
		if op != exDrop {
			s.deliver(arg, m)
		}
	case exDelay:
		c, j := arg>>2, arg&3
		if c >= nConns || j == 0 || j >= len(s.conn[c]) {
			return false
		}
		m := s.conn[c][j]
		s.conn[c] = slices.Delete(s.conn[c], j, j+1)
		s.deliver(c, m)
	case exTick:
		s.now += time.Hour
		for run := s.snd.tick(s.now, s.snd.owed); len(run) > 0; run = s.snd.resend(run[len(run)-1].to) {
			s.send(run)
		}
	case exRestart:
		if arg != 1 && arg != 2 {
			return false
		}
		s.rcv[arg] = &chainReceiver[int]{tail: arg == 2, fresh: true}
		s.conn[2*arg-2], s.conn[2*arg-1] = nil, nil // crash closes its lanes
		s.held[arg] |= s.held[3-arg]
		s.base[arg], s.head[arg] = 0, 0
		s.restarts++
	default:
		return false
	}
	if op >= exDrop {
		s.faults++
	}
	return true
}

// arrivable reports whether frame i can reach the sender next. Frames of one
// class come in log order (one pipeline each), so a sync frame may come
// ahead of the bulk frames before it.
func (s *exState) arrivable(i int) bool {
	class := ^s.sync
	if s.sync&(1<<i) != 0 {
		class = s.sync
	}
	return i < s.n && s.arrived&(1<<i) == 0 && class&exBits(0, uint64(i))&^s.arrived == 0
}

// release completes frame i to the client: once it is on both replicas,
// unless a frame at or before it failed validation, which faults the slot:
// every fsync from then on returns the fault, none a durable write.
func (s *exState) release(i int) {
	s.released |= 1 << i
	for r := 1; r <= 2; r++ {
		if s.held[r]&(1<<i) == 0 && s.invalid&exBits(0, uint64(i)+1) == 0 {
			s.viol = fmt.Sprintf("released frame %d is not on replica %d", i, r)
		}
	}
}

// send puts a run on the primary's connection of its class.
func (s *exState) send(run []span[int]) {
	sync := false
	for _, sp := range run {
		sync = sync || s.sync&(1<<sp.h) != 0
		if s.invalid&(1<<sp.h) != 0 {
			s.viol = fmt.Sprintf("invalid frame %d goes on the wire", sp.h)
		}
	}
	s.post(cP1Bulk, exMsg(run[0].from, run[len(run)-1].to, sync))
}

func (s *exState) post(c, m int) {
	if c < c1Ack && m&(1<<7) != 0 {
		c++ // the sync connection
	}
	s.conn[c] = append(s.conn[c], m)
}

// deliver hands message m from connection c to its receiver, as the shells
// do: the primary's handleReplAck, the mirror's run and handleBatch.
func (s *exState) deliver(c, m int) {
	if c >= c1Ack {
		rel, _ := s.snd.ack(c-c1Ack+1, uint64(m), s.now)
		for _, a := range rel {
			s.release(a.h)
		}
		return
	}
	r := 1 + c/2
	from, to, _, _ := exSpan(m)
	for _, a := range s.rcv[r].arrive(m, from, to) {
		switch a.op {
		case opAdopt:
			s.base[r], s.head[r] = a.from, a.from
		case opReAck:
			s.ack(r, a.to)
		case opForward:
			s.post(c12Bulk, m)
		}
	}
	for sp, ok := s.rcv[r].next(); ok; sp, ok = s.rcv[r].next() {
		_, to, bad, sync := exSpan(sp.h)
		if bad {
			continue // the integrity gate: never relayed, persisted or acked
		}
		if r == 1 {
			s.post(c12Bulk, exMsg(sp.from, to, sync))
		}
		if sp.from != s.head[r] {
			s.viol = fmt.Sprintf("replica %d persists [%d,%d) past a gap at %d", r, sp.from, to, s.head[r])
		}
		s.held[r] |= exBits(sp.from, to)
		s.head[r] = to
		s.ack(r, s.rcv[r].persisted(to).to)
	}
}

// ack sends replica r's ack through to. What a replica holds only grows, so
// an ack that is true when sent stays true, and a release likewise.
func (s *exState) ack(r int, to uint64) {
	if exBits(0, to)&^s.held[r] != 0 && s.viol == "" {
		s.viol = fmt.Sprintf("replica %d acked through %d holding only %04b", r, to, s.held[r])
	}
	s.post(c1Ack+r-1, int(to))
}

// drain delivers everything in order, fault-free, firing the timer whenever
// the connections are idle, and reports whether every frame is released. A
// state memo already judged ends it early, and every state it passes
// through is then judged the same (nil memo: none).
func (s *exState) drain(memo map[uint64]bool) bool {
	var path []uint64
	ok := false
	for round := 0; round < 16 && s.viol == ""; round++ {
		if memo != nil {
			key := s.hash()
			if v, known := memo[key]; known {
				ok = v
				break
			}
			path = append(path, key)
		}
		for i := 0; i < s.n; i++ {
			s.apply(exArrive, i)
		}
		s.apply(exPump, 0)
		for s.inflight() > 0 {
			for c := range s.conn {
				s.apply(exDeliver, c)
			}
		}
		if s.released == exBits(0, uint64(s.n)) {
			ok = true
			break
		}
		s.apply(exTick, 0)
	}
	if s.viol != "" {
		return false // judged by the walk, not memoized
	}
	for _, key := range path {
		memo[key] = ok
	}
	return ok
}

// steps lists the steps that apply to s: faults while k allows, restarts
// while restarts does, and the timer while at most inflightCap messages are
// in flight and something is owed or noted.
func (s *exState) steps(k, restarts int) (out [][2]int) {
	for i := 0; i < s.n; i++ {
		if s.arrivable(i) {
			out = append(out, [2]int{exArrive, i})
		}
	}
	if s.inflight() <= inflightCap && (len(s.snd.win) > 0 || s.snd.since != 0) {
		out = append(out, [2]int{exTick, 0})
	}
	for c := range s.conn {
		if len(s.conn[c]) == 0 {
			continue
		}
		out = append(out, [2]int{exDeliver, c})
		if s.faults >= k {
			continue
		}
		out = append(out, [2]int{exDrop, c}, [2]int{exDup, c})
		if c < c1Ack {
			out = append(out, [2]int{exCorrupt, c})
		}
		for j := 1; j < len(s.conn[c]) && j < 4; j++ {
			out = append(out, [2]int{exDelay, c<<2 | j})
		}
	}
	if s.faults < k && s.restarts < restarts {
		out = append(out, [2]int{exRestart, 1}, [2]int{exRestart, 2})
	}
	return out
}

type exViolation struct {
	exConf
	trace [][2]int
	what  string
}

func (v exViolation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d frames, sync %04b, invalid %04b: %s", v.n, v.sync, v.invalid, v.what)
	for _, st := range v.trace {
		fmt.Fprintf(&b, "\n  %s", exStepName(st))
	}
	return b.String()
}

// exKinds name the invariants a violation can break, by a word of its text.
var exKinds = [][2]string{{"never", "stall"}, {"released", "release of an unheld frame"},
	{"gap", "persist past a gap"}, {"acked", "ack of an unpersisted frame"}}

func (v exViolation) kind() int {
	return slices.IndexFunc(exKinds, func(k [2]string) bool { return strings.Contains(v.what, k[0]) })
}

func exStepName(st [2]int) string {
	switch st[0] {
	case exArrive:
		return fmt.Sprintf("arrive f%d", st[1])
	case exDeliver, exDrop, exDup, exCorrupt:
		return exOpNames[st[0]] + " " + exConnNames[st[1]]
	case exDelay:
		return fmt.Sprintf("delay %s #%d", exConnNames[st[1]>>2], st[1]&3)
	case exRestart:
		return fmt.Sprintf("restart replica %d", st[1])
	}
	return exOpNames[st[0]]
}

// replay runs trace from the start, skipping steps that do not apply and,
// with noRestart, the restarts, and returns the violation it ends in, the
// drain's included.
func replay(cf exConf, trace [][2]int, noRestart bool) string {
	s := newExState(cf)
	for _, st := range trace {
		if st[0] != exRestart || !noRestart {
			s.apply(st[0], st[1])
		}
		if s.viol != "" {
			return s.viol
		}
	}
	if !s.drain(nil) && s.viol == "" {
		return "a frame is never released"
	}
	return s.viol
}

// explore walks every interleaving breadth first, so the first violation
// found on a path is a shortest one; a violating state is not expanded.
// live memoizes drain's verdict for every state a drain passed through.
func explore(cf exConf, k, restarts int) (states int, viols []exViolation) {
	type node struct {
		parent int
		step   [2]int
	}
	var nodes []node
	trace := func(i int) (t [][2]int) {
		for ; i > 0; i = nodes[i].parent {
			t = append(t, nodes[i].step)
		}
		slices.Reverse(t)
		return t
	}
	seen := map[uint64]bool{}
	live := map[uint64]bool{}
	visit := func(s *exState) bool {
		h := s.hash()
		if seen[h] {
			return false
		}
		seen[h] = true
		return true
	}
	root := newExState(cf)
	visit(root)
	nodes = append(nodes, node{})
	type item struct {
		s  *exState
		id int
	}
	frontier := []item{{root, 0}}
	for len(frontier) > 0 {
		var next []item
		for _, it := range frontier {
			for _, st := range it.s.steps(k, restarts) {
				c := it.s.clone()
				if !c.apply(st[0], st[1]) || !visit(c) {
					continue
				}
				nodes = append(nodes, node{it.id, st})
				id := len(nodes) - 1
				// A drain that breaks 1–3 proves nothing about 4; the walk
				// reaches that violation itself, by a path of its own.
				if d := c.clone(); c.viol == "" && !d.drain(live) && d.viol == "" {
					c.viol = "a frame is never released"
				}
				if c.viol != "" {
					viols = append(viols, exViolation{cf, trace(id), c.viol})
					continue
				}
				next = append(next, item{c, id})
			}
		}
		frontier = next
	}
	return len(seen), viols
}

var (
	exploreK = flag.Int("chainproto.k", 1, "faults per interleaving, for TestChainExplore")
	exploreN = flag.Int("chainproto.n", 3, "TestChainExplore's frame count: every class assignment up to it, then its fsync shapes one frame past it")
)

// TestChainExplore walks 1–n frames under every assignment of frames to the
// two classes, then n+1 frames all bulk and with a sync tail, and three
// frames of which the middle one fails validation, with up to k faults, one
// of which may be a replica's restart. A violation the trace without its
// restart does not reproduce is item 9 (i)'s: a mirror born after Recover
// takes its stream's start from the first frame it sees (TestChainExplore9i
// pins one). Any other is a protocol bug.
func TestChainExplore(t *testing.T) {
	t.Parallel()
	k, maxN := *exploreK, *exploreN
	if testing.Short() {
		maxN = min(maxN, 2) // -race -short: the detector slows the walk tenfold
	}
	confs := []exConf{{3, 0, 0b010}, {3, 0b100, 0b010}}
	for n := 1; n <= maxN; n++ {
		for sync := uint8(0); sync < 1<<n; sync++ {
			confs = append(confs, exConf{n, sync, 0})
		}
	}
	if n := maxN + 1; n <= 4 {
		confs = append(confs, exConf{n, 0, 0}, exConf{n, 1 << (n - 1), 0})
	}
	start, states := time.Now(), 0
	var shortest [4]exViolation
	var count [4]int
	for _, cf := range confs {
		st, viols := explore(cf, k, 1)
		states += st
		for _, v := range viols {
			if why := replay(v.exConf, v.trace, true); why != "" {
				t.Fatalf("violation without a restart (%s):\n%s", why, v)
			}
			count[v.kind()]++
			if old := &shortest[v.kind()]; old.trace == nil || len(v.trace) < len(old.trace) {
				*old = v
			}
		}
	}
	t.Logf("k=%d, %d models up to %d frames: %d states explored in %.2fs", k, len(confs), min(maxN+1, 4), states, time.Since(start).Seconds())
	for i, v := range shortest {
		if v.trace != nil {
			t.Logf("item 9 (i): %d violations by %s, the shortest:\n%s", count[i], exKinds[i][1], v)
		}
	}
}

// TestChainExplore9i pins ROADMAP item 9 (i): a mirror born fresh after
// Recover adopts an overtaking sync frame's offset and acks a range it never
// persisted. It prints the shortest counterexample. Item 9's position
// handshake removes the adoption; this test then wants no violation.
func TestChainExplore9i(t *testing.T) {
	t.Parallel()
	v := explore9i()
	if v.trace == nil {
		t.Fatal("no violation: the fresh-mirror hazard is gone; flip this test to want none")
	}
	t.Logf("shortest counterexample, %d steps:\n%s", len(v.trace), v)
	if !strings.Contains(v.what, "acked through") {
		t.Fatalf("the shortest violation is not the fresh mirror's unpersisted ack:\n%s", v)
	}
	if why := replay(v.exConf, v.trace, true); why != "" {
		t.Fatalf("without its restart the trace still breaks (%s)", why)
	}
}

// explore9i is the shortest violation over two frames, the second sync, with
// one fault: a restart.
func explore9i() exViolation {
	if _, viols := explore(exConf{2, 0b10, 0}, 1, 1); len(viols) > 0 {
		return viols[0]
	}
	return exViolation{}
}

// FuzzChainProto runs arbitrary step sequences, every fault but the restart
// allowed as often as the input asks, against the four invariants. An input
// is the frame count, the class mask and the invalid mask, then (op, arg)
// pairs. The seed is TestChainExplore9i's counterexample with its restart
// left out, which breaks nothing.
func FuzzChainProto(f *testing.F) {
	if v := explore9i(); v.trace != nil {
		in := []byte{byte(v.n - 1), v.sync, v.invalid}
		for _, st := range v.trace {
			if st[0] != exRestart {
				in = append(in, byte(st[0]), byte(st[1]))
			}
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		var trace [][2]int
		for i := 3; i+1 < len(in) && len(trace) < 256; i += 2 {
			if op := int(in[i]) % exOps; op != exRestart {
				trace = append(trace, [2]int{op, int(in[i+1])})
			}
		}
		cf := exConf{1 + int(in[0])%4, in[1], in[2]}
		if why := replay(cf, trace, true); why != "" {
			t.Fatalf("violation (%s):\n%s", why, exViolation{cf, trace, why})
		}
	})
}
