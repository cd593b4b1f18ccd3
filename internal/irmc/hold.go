package irmc

import "spider/internal/ids"

// Hold keeps traffic of one subchannel that arrived for positions the
// local window does not cover yet, so that it can be admitted once the
// window gets there. A sender whose own MoveWindow takes effect at once
// submits before fs+1 of its peers have moved the other endpoints'
// windows; dropping that traffic would cost a repair round trip (or, on
// IRMC-SC, a collector timeout), holding it costs a bounded buffer.
//
// The bound is per peer: a peer's entries all lie within Capacity
// positions of the highest position that peer has submitted, one entry
// per position, so a peer never occupies more than Capacity entries
// whatever it sends. Everything a correct peer still has outstanding
// fits that range (it only submits inside its own window of Capacity
// positions, whose start never moves back), and a faulty peer racing
// ahead evicts nothing but its own entries. Held entries are not
// admitted, counted or delivered: Release feeds them to the caller's
// ordinary admission path once the window contains them.
//
// All three early-arrival sites use it: IRMC-RC receivers (Send
// payloads per sender), IRMC-SC senders (sig-shares per peer sender)
// and IRMC-SC receivers (verified certificates per collector). It is
// not synchronized; callers hold their endpoint lock.
type Hold[T any] struct {
	capacity int
	peers    map[ids.NodeID]*peerHold[T]
}

type peerHold[T any] struct {
	high    ids.Position // highest position this peer submitted early
	entries map[ids.Position]T
}

// NewHold returns a hold keeping at most capacity entries per peer. It
// allocates nothing until something arrives early.
func NewHold[T any](capacity int) Hold[T] {
	return Hold[T]{capacity: capacity}
}

// Put keeps v as peer's submission for position p. The first
// submission per peer and position wins, matching in-window admission.
func (h *Hold[T]) Put(peer ids.NodeID, p ids.Position, v T) {
	ph := h.peers[peer]
	if ph == nil {
		if h.peers == nil {
			h.peers = make(map[ids.NodeID]*peerHold[T])
		}
		ph = &peerHold[T]{entries: make(map[ids.Position]T)}
		h.peers[peer] = ph
	}
	span := ids.Position(h.capacity)
	switch {
	case p > ph.high:
		ph.high = p
		for q := range ph.entries {
			if q+span <= p {
				delete(ph.entries, q)
			}
		}
	case p+span <= ph.high:
		return // the peer itself has moved more than a window past p
	}
	if _, dup := ph.entries[p]; !dup {
		ph.entries[p] = v
	}
}

// Release removes every entry the window has reached or passed and
// hands those inside it to admit; entries below the window start are
// stale and dropped.
func (h *Hold[T]) Release(win Window, admit func(peer ids.NodeID, p ids.Position, v T)) {
	for peer, ph := range h.peers {
		for p, v := range ph.entries {
			if p > win.Max() {
				continue
			}
			delete(ph.entries, p)
			if p >= win.Start {
				admit(peer, p, v)
			}
		}
	}
}

// DropBelow discards peer's entries below p: the peer announced that
// it has moved its own window past them.
func (h *Hold[T]) DropBelow(peer ids.NodeID, p ids.Position) {
	if ph := h.peers[peer]; ph != nil {
		for q := range ph.entries {
			if q < p {
				delete(ph.entries, q)
			}
		}
	}
}

// Len returns how many entries are held for peer.
func (h *Hold[T]) Len(peer ids.NodeID) int {
	if ph := h.peers[peer]; ph != nil {
		return len(ph.entries)
	}
	return 0
}
