package irmctest

import (
	"sync"

	"spider/internal/ids"
	"spider/internal/transport"
)

// Wire is a transport for tests that drive endpoints by hand: a frame
// travels only when Flush is called, on the calling goroutine, in the
// order frames were sent. With the endpoints' ticks called directly (at
// intervals long enough that their own timers never fire), such a test
// runs on synthetic time and never waits for the network.
type Wire struct {
	mu       sync.Mutex
	handlers map[wireDest]transport.BatchHandler
	queue    []wireFrame
	cut      map[[2]ids.NodeID]bool
}

type wireDest struct {
	node   ids.NodeID
	stream transport.Stream
}

type wireFrame struct {
	from    ids.NodeID
	to      wireDest
	payload []byte
}

// NewWire returns an empty wire.
func NewWire() *Wire {
	return &Wire{handlers: make(map[wireDest]transport.BatchHandler), cut: make(map[[2]ids.NodeID]bool)}
}

// Node returns the transport handle of node id.
func (w *Wire) Node(id ids.NodeID) transport.Node { return wireNode{w, id} }

// Cut severs (or, with severed false, restores) the link between a and
// b in both directions; a frame sent over a severed link is lost.
func (w *Wire) Cut(a, b ids.NodeID, severed bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cut[[2]ids.NodeID{a, b}], w.cut[[2]ids.NodeID{b, a}] = severed, severed
}

// Flush delivers queued frames, and the frames their handlers send,
// until none is left; it returns how many frames it delivered.
func (w *Wire) Flush() int {
	n := 0
	for {
		w.mu.Lock()
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return n
		}
		f := w.queue[0]
		w.queue = w.queue[1:]
		h := w.handlers[f.to]
		w.mu.Unlock()
		if h != nil {
			h(f.from, [][]byte{f.payload})
			n++
		}
	}
}

type wireNode struct {
	w  *Wire
	id ids.NodeID
}

func (n wireNode) ID() ids.NodeID { return n.id }

func (n wireNode) Send(to ids.NodeID, stream transport.Stream, payload []byte) {
	n.w.mu.Lock()
	defer n.w.mu.Unlock()
	if !n.w.cut[[2]ids.NodeID{n.id, to}] {
		n.w.queue = append(n.w.queue, wireFrame{from: n.id, to: wireDest{to, stream}, payload: payload})
	}
}

func (n wireNode) HandleBatch(stream transport.Stream, h transport.BatchHandler) {
	n.w.mu.Lock()
	defer n.w.mu.Unlock()
	n.w.handlers[wireDest{n.id, stream}] = h
}

func (n wireNode) Handle(stream transport.Stream, h transport.Handler) {
	n.HandleBatch(stream, func(from ids.NodeID, payloads [][]byte) {
		for _, p := range payloads {
			h(from, p)
		}
	})
}
