// Package transport defines the point-to-point messaging abstraction
// shared by every protocol component. Each node has a Node handle: it
// registers one handler per Stream and sends frames to peers.
//
// Two implementations exist: memnet (in-process, with emulated WAN
// latency; used by tests, examples and the benchmark harness) and
// tcpnet (real TCP; used by the cmd/spider-node daemon). They differ
// only in how frames travel; both hand what arrives to an embedded Mux,
// which holds the handlers, buffers frames that arrive before their
// handler and delivers each run of frames.
//
// Delivery contract: frames between the same ordered pair of nodes are
// delivered in FIFO order per stream pair; delivery is asynchronous and
// best-effort (a crashed or partitioned receiver silently loses
// frames). Each peer's frames are handed to the handlers on that peer's
// own delivery goroutine, so different peers' frames are handled side by
// side. The order holds across registration: frames buffered before a
// handler registers reach it first, and a frame that arrives while they
// are replayed waits for them. A handler may spend bounded CPU on a
// frame — authentication runs there — but must never wait for another
// frame: that frame may be queued behind the one being handled. These
// are exactly the assumptions the paper's protocols make of their
// channels, with retransmission and flow control layered above (IRMCs,
// client retry).
//
// # Buffer ownership
//
// Send transfers ownership of payload to the transport: the caller
// must not mutate the slice afterwards. Transports never copy on this
// boundary — memnet delivers the sender's slice to the receiver
// unchanged, a multicast shares one slice across all destinations, and
// tcpnet queues the slice until the connection writer flushes it. The
// paper's cheap normal case depends on this zero-copy rule: one
// encoded frame serves an entire multicast.
//
// On delivery, the payload handed to a Handler is immutable shared
// data: the handler may read it from any goroutine and may retain it,
// but must never write to it — other frames may share the same backing
// allocation (tcpnet carves inbound frames from a receive arena).
// Because a retained frame pins its whole arena chunk, long-lived
// retention (state stored across views, checkpoints) should copy.
package transport

import "spider/internal/ids"

// Stream demultiplexes independent components sharing one node, e.g.
// the PBFT instance, each IRMC endpoint, and the checkpoint component.
type Stream uint32

// StreamKind occupies the top byte of a Stream and namespaces the
// component kinds; the remaining bytes identify the concrete instance
// (for IRMCs, the execution group the channel belongs to).
type StreamKind uint8

// Stream kinds used by the protocol packages.
const (
	KindClient     StreamKind = 1 // client <-> execution replica traffic
	KindPBFT       StreamKind = 2 // consensus traffic inside a group
	KindRequestCh  StreamKind = 3 // request IRMC (execution -> agreement)
	KindCommitCh   StreamKind = 4 // commit IRMC (agreement -> execution)
	KindCheckpoint StreamKind = 5 // checkpoint component within a group
	KindHFT        StreamKind = 7 // HFT baseline traffic
	KindBench      StreamKind = 8 // microbenchmark traffic
)

// declared reports whether k is one of the kinds above.
func (k StreamKind) declared() bool {
	switch k {
	case KindClient, KindPBFT, KindRequestCh, KindCommitCh, KindCheckpoint, KindHFT, KindBench:
		return true
	}
	return false
}

// MakeStream composes a stream identifier from a kind and an instance
// number (for example a group id).
func MakeStream(kind StreamKind, instance uint32) Stream {
	return Stream(uint32(kind)<<24 | instance&0xFFFFFF)
}

// Handler processes one inbound frame. The payload is owned by the
// handler (the transport never reuses it).
type Handler func(from ids.NodeID, payload []byte)

// BatchHandler processes a run of frames that arrived back-to-back
// from the same peer on the same stream, in arrival order. Receivers
// use it to amortize per-frame admission cost (allocations, lock
// acquisitions) when a link's queue has built up; the run length is an
// artifact of queue depth, never a delivery guarantee.
type BatchHandler func(from ids.NodeID, payloads [][]byte)

// Node is one endpoint's connection to the network.
type Node interface {
	// ID returns the node identity this handle sends as.
	ID() ids.NodeID
	// Send asynchronously delivers payload to the stream handler at
	// `to`. Send never blocks on the receiver.
	Send(to ids.NodeID, stream Stream, payload []byte)
	// HandleBatch registers the handler for a stream, replacing any
	// earlier one. Frames that arrived before registration are
	// buffered (bounded) and delivered upon registration, so
	// components may be wired in any order.
	HandleBatch(stream Stream, h BatchHandler)
	// Handle registers a handler that takes one frame per call; it is
	// HandleBatch over a loop.
	Handle(stream Stream, h Handler)
}

// Multicast sends payload to every node in to (self included if
// listed). All destinations share the one payload slice.
func Multicast(node Node, to []ids.NodeID, stream Stream, payload []byte) {
	for _, dst := range to {
		node.Send(dst, stream, payload)
	}
}
