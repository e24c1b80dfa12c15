package rdma

import (
	"math/rand"
	"time"

	"linefs/internal/sim"
	"linefs/internal/stats"
)

// FaultPlane is the deterministic fault-injection layer of a fabric: per
// directed link it can drop, duplicate, delay, or corrupt two-sided frames
// and fail or corrupt one-sided verbs, and per unordered pair it can cut a
// bidirectional partition. Every random draw comes from the simulation
// environment's seeded RNG, and draws happen only for links a rule or
// partition actually covers — so a fabric with a fault plane but no active
// rules executes the exact event sequence of a fabric without one, and a
// given seed replays the same fault schedule bit-identically.
//
// The plane sits at post (Send/Call/CallTimeout) and RDMARead/RDMAWrite: a
// nil Fabric.Faults (the default) adds zero work to every path.
type FaultPlane struct {
	env *sim.Env
	// Stats receives injection counters; shared with the cluster's
	// robustness counters so bench summaries can print one line.
	Stats *stats.Robustness

	rules map[linkKey]FaultRule
	parts map[linkKey]bool
}

// linkKey names a directed link for rules, or a sorted pair for partitions.
type linkKey struct{ a, b string }

func pairKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// FaultRule is the per-directed-link fault mix. Probabilities are in
// [0, 1] and drawn independently per frame in a fixed order (drop, then
// duplicate, corrupt, delay), so effects compose: a frame can be both
// corrupted and delayed. Delay defers delivery by a uniform draw in
// (0, DelayMax], which reorders the frame past traffic sent after it.
type FaultRule struct {
	Drop    float64
	Dup     float64
	Corrupt float64
	Delay   float64
	// DelayMax bounds the injected delay; required when Delay > 0.
	DelayMax time.Duration
}

// Corrupter is implemented by message payloads that can produce a
// bit-flipped copy of themselves for in-flight corruption. CorruptCopy
// must not mutate the receiver: payload buffers are owned by the sender
// (pooled chunk buffers on the primary) and shared with down-chain
// forwards, so corruption applies to a copy only.
type Corrupter interface {
	CorruptCopy(rng *rand.Rand) any
}

// NewFaultPlane creates a fault plane drawing randomness from env's seeded
// RNG. rs receives injection counters; nil allocates a private set.
func NewFaultPlane(env *sim.Env, rs *stats.Robustness) *FaultPlane {
	if rs == nil {
		rs = &stats.Robustness{}
	}
	return &FaultPlane{
		env:   env,
		Stats: rs,
		rules: make(map[linkKey]FaultRule),
		parts: make(map[linkKey]bool),
	}
}

// SetRule installs (or replaces) the fault mix for frames sent from NIC
// `from` to NIC `to`.
func (fp *FaultPlane) SetRule(from, to string, r FaultRule) {
	fp.rules[linkKey{from, to}] = r
}

// ClearRule removes the directed rule, if any.
func (fp *FaultPlane) ClearRule(from, to string) {
	delete(fp.rules, linkKey{from, to})
}

// ClearRules removes every directed rule.
func (fp *FaultPlane) ClearRules() {
	fp.rules = make(map[linkKey]FaultRule)
}

// Partition cuts the bidirectional link between a and b: every frame and
// one-sided verb between them fails until Heal.
func (fp *FaultPlane) Partition(a, b string) {
	fp.parts[pairKey(a, b)] = true
}

// Heal lifts the partition between a and b.
func (fp *FaultPlane) Heal(a, b string) {
	k := pairKey(a, b)
	if fp.parts[k] {
		delete(fp.parts, k)
		fp.Stats.PartitionsHealed++
	}
}

// HealAll lifts every partition and clears every rule (the end of a chaos
// schedule's fault window).
func (fp *FaultPlane) HealAll() {
	fp.Stats.PartitionsHealed += int64(len(fp.parts))
	fp.parts = make(map[linkKey]bool)
	fp.ClearRules()
}

// Partitioned reports whether a and b are currently cut off.
func (fp *FaultPlane) Partitioned(a, b string) bool {
	return fp.parts[pairKey(a, b)]
}

// frameFault is the per-frame verdict for one directed delivery.
type frameFault struct {
	drop    bool
	dup     bool
	corrupt bool
	delay   time.Duration
}

// frameVerdict draws the fault mix for one frame from `from` to `to`. The
// RNG is consulted only when a rule covers the link, keeping unrelated
// traffic's draw sequence (and therefore digests) unchanged.
func (fp *FaultPlane) frameVerdict(from, to string) frameFault {
	var f frameFault
	if fp.parts[pairKey(from, to)] {
		f.drop = true
		return f
	}
	r, ok := fp.rules[linkKey{from, to}]
	if !ok {
		return f
	}
	rng := fp.env.Rand()
	if r.Drop > 0 && rng.Float64() < r.Drop {
		f.drop = true
		return f
	}
	if r.Dup > 0 && rng.Float64() < r.Dup {
		f.dup = true
	}
	if r.Corrupt > 0 && rng.Float64() < r.Corrupt {
		f.corrupt = true
	}
	if r.Delay > 0 && rng.Float64() < r.Delay && r.DelayMax > 0 {
		f.delay = time.Duration(1 + rng.Int63n(int64(r.DelayMax)))
	}
	return f
}

// injectSend applies the fault mix to a two-sided frame about to enter the
// remote service queue. It returns true when the plane consumed delivery
// (drop, or deferred/duplicated enqueue it performed itself); the caller
// then skips its own Put. The wire cost was already charged — a dropped
// frame still burned sender bandwidth, exactly like a frame lost past the
// switch.
func (fp *FaultPlane) injectSend(p *sim.Proc, c *Conn, q *sim.Queue[*Msg], m *Msg) bool {
	f := fp.frameVerdict(c.Local.Name, c.Remote.Name)
	if f.drop {
		fp.Stats.FramesDropped++
		return true
	}
	if f.corrupt {
		if cr, ok := m.Arg.(Corrupter); ok {
			m.Arg = cr.CorruptCopy(fp.env.Rand())
			fp.Stats.FramesCorrupted++
		}
	}
	if f.delay > 0 {
		fp.Stats.FramesDelayed++
		if f.dup {
			fp.Stats.FramesDuplicated++
			q.Put(p, dupMsg(m))
		}
		fp.env.Go("fault/delay", func(dp *sim.Proc) {
			dp.Sleep(f.delay)
			q.Put(dp, m)
		})
		return true
	}
	if f.dup {
		fp.Stats.FramesDuplicated++
		q.Put(p, m)
		q.Put(p, dupMsg(m))
		return true
	}
	return false
}

// dupMsg copies a frame for duplicate delivery. The copy shares the
// (immutable in flight) Arg but carries no reply event: a handler that
// answers the duplicate finds no caller waiting, which matches a receiver
// acking a retransmitted frame whose originator moved on.
func dupMsg(m *Msg) *Msg {
	d := *m
	d.reply = nil
	return &d
}

// injectOneSided applies the fault mix to a one-sided verb. A drop or
// partition surfaces as ErrUnreachable — the reliable-connection transport
// retries lost packets itself, so a persistent loss is a completion error,
// not silence. Delay stalls the issuing process; corruption is handled by
// the caller (the payload semantics differ between READ and WRITE).
// Returns corrupt=true when the caller must flip payload bytes.
func (fp *FaultPlane) injectOneSided(p *sim.Proc, c *Conn) (err error, corrupt bool) {
	f := fp.frameVerdict(c.Local.Name, c.Remote.Name)
	if f.drop {
		fp.Stats.OneSidedFaults++
		return ErrUnreachable, false
	}
	if f.delay > 0 {
		fp.Stats.FramesDelayed++
		p.Sleep(f.delay)
	}
	if f.corrupt {
		fp.Stats.OneSidedFaults++
	}
	return nil, f.corrupt
}

// CorruptBytes flips one random byte of buf in place (for one-sided verbs,
// where the caller owns a scratch copy of the payload).
func (fp *FaultPlane) CorruptBytes(buf []byte) {
	if len(buf) == 0 {
		return
	}
	i := fp.env.Rand().Intn(len(buf))
	buf[i] ^= 0xA5
}
