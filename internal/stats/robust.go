package stats

import (
	"fmt"
	"strings"
)

// Robustness aggregates the failure-path counters of one cluster: what the
// fault plane injected, what the retry/timeout layers absorbed, and what
// the integrity gates rejected. Counters are plain fields (the simulation
// is cooperatively scheduled) so incrementing them costs nothing on the
// hot path.
type Robustness struct {
	// Fault-plane injections.
	FramesDropped    int64 // two-sided frames silently dropped
	FramesDuplicated int64 // two-sided frames delivered twice
	FramesCorrupted  int64 // payloads bit-flipped in flight
	FramesDelayed    int64 // frames deferred past later traffic
	PartitionsHealed int64 // bidirectional partitions lifted

	// Survival-layer reactions.
	RPCRetries       int64 // control-RPC attempts beyond the first
	RPCTimeouts      int64 // control-RPC attempts that timed out
	RepResends       int64 // replication retransmit messages sent
	DupDelivered     int64 // duplicate replication frames deduped at mirrors
	CRCRejected      int64 // replication frames rejected by the CRC gate
	RepliesDiscarded int64 // late responses to abandoned calls discarded
	StaleAcks        int64 // acks that advanced no watermark (primary side)
}

// Add accumulates other into r (for summing per-node counters).
func (r *Robustness) Add(other *Robustness) {
	r.FramesDropped += other.FramesDropped
	r.FramesDuplicated += other.FramesDuplicated
	r.FramesCorrupted += other.FramesCorrupted
	r.FramesDelayed += other.FramesDelayed
	r.PartitionsHealed += other.PartitionsHealed
	r.RPCRetries += other.RPCRetries
	r.RPCTimeouts += other.RPCTimeouts
	r.RepResends += other.RepResends
	r.DupDelivered += other.DupDelivered
	r.CRCRejected += other.CRCRejected
	r.RepliesDiscarded += other.RepliesDiscarded
	r.StaleAcks += other.StaleAcks
}

// Any reports whether any counter is nonzero.
func (r *Robustness) Any() bool {
	return *r != Robustness{}
}

// Summary renders the nonzero counters on one line, in a fixed order.
func (r *Robustness) Summary() string {
	var b strings.Builder
	add := func(name string, v int64) {
		if v == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, v)
	}
	add("dropped", r.FramesDropped)
	add("duplicated", r.FramesDuplicated)
	add("corrupted", r.FramesCorrupted)
	add("delayed", r.FramesDelayed)
	add("partitions-healed", r.PartitionsHealed)
	add("rpc-retries", r.RPCRetries)
	add("rpc-timeouts", r.RPCTimeouts)
	add("rep-resends", r.RepResends)
	add("dup-delivered", r.DupDelivered)
	add("crc-rejected", r.CRCRejected)
	add("replies-discarded", r.RepliesDiscarded)
	add("stale-acks", r.StaleAcks)
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}
