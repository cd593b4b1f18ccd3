// Package transport defines the point-to-point messaging abstraction
// shared by every protocol component. A deployment connects nodes
// through a Network; each node obtains a Node handle, registers
// per-Stream handlers, and sends frames to peers.
//
// Two implementations exist: memnet (in-process, with emulated WAN
// latency; used by tests, examples and the benchmark harness) and
// tcpnet (real TCP; used by the cmd/spider-node daemon).
//
// Delivery contract: frames between the same ordered pair of nodes are
// delivered in FIFO order per stream pair; delivery is asynchronous and
// best-effort (a crashed or partitioned receiver silently loses
// frames). Each peer's frames are handed to the handlers on that peer's
// own delivery goroutine, so different peers' frames are handled side by
// side. A handler may spend bounded CPU on a frame — authentication runs
// there — but must never wait for another frame: that frame may be
// queued behind the one being handled. These are exactly the
// assumptions the paper's protocols make of their channels, with
// retransmission and flow control layered above (IRMCs, client retry).
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
// acquisitions) when a link's queue has built up; the
// run length is an artifact of queue depth, never a delivery guarantee.
type BatchHandler func(from ids.NodeID, payloads [][]byte)

// BatchNode is optionally implemented by transports whose receive path
// can hand several queued frames to the handler in one call (memnet
// link queues, tcpnet's kernel receive buffer). HandleBatch replaces
// any Handler previously registered for the stream and vice versa.
type BatchNode interface {
	HandleBatch(stream Stream, h BatchHandler)
}

// RegisterBatch registers h on node for stream: as a true batch
// handler when the transport supports it, frame-at-a-time otherwise.
// Protocol endpoints that can exploit batched admission register
// through this helper so they work over every transport.
func RegisterBatch(node Node, stream Stream, h BatchHandler) {
	if bn, ok := node.(BatchNode); ok {
		bn.HandleBatch(stream, h)
		return
	}
	node.Handle(stream, func(from ids.NodeID, payload []byte) {
		h(from, [][]byte{payload})
	})
}

// ReplayRuns feeds a buffered backlog (parallel from/payload slices in
// arrival order) to a batch handler, grouping consecutive frames from
// the same sender into one call. Transports use it to flush their
// pre-registration backlogs through HandleBatch.
func ReplayRuns(h BatchHandler, froms []ids.NodeID, payloads [][]byte) {
	for i := 0; i < len(froms); {
		j := i + 1
		for j < len(froms) && froms[j] == froms[i] {
			j++
		}
		h(froms[i], payloads[i:j])
		i = j
	}
}

// Node is one endpoint's connection to the network.
type Node interface {
	// ID returns the node identity this handle sends as.
	ID() ids.NodeID
	// Send asynchronously delivers payload to the stream handler at
	// `to`. Send never blocks on the receiver.
	Send(to ids.NodeID, stream Stream, payload []byte)
	// Multicast sends payload to every node in to (self included if
	// listed).
	Multicast(to []ids.NodeID, stream Stream, payload []byte)
	// Handle registers the handler for a stream. Frames that arrived
	// before registration are buffered (bounded) and delivered upon
	// registration, so components may be wired in any order.
	Handle(stream Stream, h Handler)
}

// Network creates node handles. Implementations are safe for
// concurrent use.
type Network interface {
	// Node returns the handle for id, creating it if necessary.
	Node(id ids.NodeID) Node
	// Close stops delivery and releases resources.
	Close()
}
