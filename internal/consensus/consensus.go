// Package consensus defines the agreement black-box interface from
// Figure 12 of the paper. Spider's agreement replicas (and the BFT
// baselines) depend only on this interface, which is what makes the
// architecture modular: any protocol providing the four properties
// below can replace PBFT without touching execution groups.
//
// Required properties (Definitions A.6–A.9):
//
//   - A-Safety: if two correct replicas deliver a payload for sequence
//     number s, the payloads are identical.
//   - A-Liveness: a payload ordered by 2f+1 correct replicas is
//     eventually delivered by f+1 correct replicas.
//   - A-Validity: only payloads accepted by the configured validator
//     are delivered.
//   - A-Order: sequence numbers are delivered in order without gaps,
//     except across garbage collection.
package consensus

import (
	"spider/internal/ids"
)

// Batch is one delivered consensus decision. Protocols order payloads
// in batches (PBFT proposes up to BatchSize payloads per instance);
// delivering the batch as a unit lets the layer above amortize its
// per-decision work — one commit-channel position, one Send and one
// wide-area frame per execution group — instead of paying them per
// request.
//
//   - Seq is the dense batch sequence number (1, 2, 3, …). Two correct
//     replicas delivering batch Seq deliver identical contents
//     (A-Safety lifted to batches). Gaps appear only across garbage
//     collection or state transfer, exactly like payload sequence
//     numbers; a protocol that orders one payload at a time uses its
//     payload sequence number as the batch number.
//   - Start is the global sequence number of Payloads[0]; payload i has
//     sequence number Start+i. Within a batch delivery these are dense
//     by construction.
//   - Payloads may be empty: a view change can fill a pipeline gap with
//     a null batch, which still consumes a batch sequence number (and
//     therefore must still be announced downstream so position
//     accounting keyed on batch numbers never stalls).
type Batch struct {
	Seq      uint64
	Start    ids.SeqNr
	Payloads [][]byte
}

// End returns the global sequence number of the last payload, or
// Start-1 for a null batch.
func (b *Batch) End() ids.SeqNr {
	return b.Start + ids.SeqNr(len(b.Payloads)) - 1
}

// DeliverFunc receives ordered batches. Batch sequence numbers are
// dense (1, 2, 3, …) except immediately after garbage collection or
// state transfer, where a gap may appear. The callback may block; a
// blocked callback exerts backpressure on the protocol (and may cause
// protocol timeouts to fire, as the paper notes), so implementations
// above it must keep blocking bounded.
type DeliverFunc func(b Batch)

// ValidateFunc vets a payload before the protocol agrees to order it
// (A-Validity). It must be deterministic and side-effect free.
type ValidateFunc func(payload []byte) error

// Agreement is the black box that establishes a total order on opaque
// payloads. Implementations are safe for concurrent use.
type Agreement interface {
	// Start launches the protocol's background goroutines. Deliveries
	// begin after Start.
	Start()
	// Stop terminates the protocol and waits for its goroutines.
	// No deliveries happen after Stop returns.
	Stop()
	// Order asks the protocol to assign a sequence number to payload.
	// Every replica receiving a payload must call Order for it: on
	// the leader this triggers a proposal, on followers it arms the
	// fault-detection timeout that holds the leader accountable.
	Order(payload []byte)
	// GC tells the protocol that everything before seq (exclusive)
	// has been made durable elsewhere and may be forgotten. After
	// GC(s) no sequence number below s will be delivered.
	GC(before ids.SeqNr)
}
