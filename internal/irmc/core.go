package irmc

import "spider/internal/ids"

// SenderSub is one subchannel's state at a sender endpoint.
type SenderSub[X any] struct {
	Win SenderWindow
	// Early holds what fellow senders submit for positions this
	// sender's window does not cover yet — IRMC-SC's shares; under
	// receiver-side collection senders exchange nothing and it stays
	// empty. The implementation puts and releases; the core reports it.
	Early Hold[*SigShareMsg]
	// X is the implementation's own state for the subchannel.
	X X
}

func (sub *SenderSub[X]) held(peer ids.NodeID) int { return sub.Early.Len(peer) }

// SenderCore is the part of a sender endpoint that Figure 14 specifies
// whatever the collection strategy: subchannel state, the window wait
// in front of Send, MoveWindow, the receivers' announcements, and the
// re-announcement of a move until every receiver has acknowledged it.
// An implementation embeds it, adds Send, and hears about every advance
// of a window through one hook. Everything here but Init runs under Mu
// (endpoint.go).
type SenderCore[X any] struct {
	subchannels[*SenderSub[X]]
	initX   func(*X)
	changed func(*SenderSub[X])
}

// Init prepares the core. initX fills the implementation's state of a
// new subchannel. changed is called whenever a subchannel's window
// start advances: the implementation prunes what the start has passed
// and admits what it held for the new range.
func (c *SenderCore[X]) Init(cfg Config, initX func(*X), changed func(*SenderSub[X])) error {
	c.Subs, c.initX, c.changed = make(map[ids.Subchannel]*SenderSub[X]), initX, changed
	return c.endpoint.init(cfg)
}

// Sub returns the subchannel's state, creating it if needed.
func (c *SenderCore[X]) Sub(sc ids.Subchannel) *SenderSub[X] {
	sub, ok := c.Subs[sc]
	if !ok {
		sub = &SenderSub[X]{
			Win:   NewSenderWindow(c.Cfg.Capacity),
			Early: NewHold[*SigShareMsg](c.Cfg.Capacity),
		}
		c.initX(&sub.X)
		c.Subs[sc] = sub
	}
	return sub
}

// advanced wakes blocked Sends and runs the implementation's hook after
// the window start of sub moved.
func (c *SenderCore[X]) advanced(sub *SenderSub[X]) {
	c.wake = true
	c.changed(sub)
}

// moveWindow is MoveWindow: the local window starts at p from now on,
// and the receivers are asked to follow.
func (c *SenderCore[X]) moveWindow(sc ids.Subchannel, p ids.Position) {
	sub := c.Sub(sc)
	fresh, advanced := sub.Win.Request(p)
	if advanced {
		c.advanced(sub)
	}
	if fresh {
		c.Queue(TagMove, &MoveMsg{Subchannel: sc, Position: p}, c.Cfg.Receivers.Members...)
	}
}

// OnReceiverMove records a receiver's announced window start.
func (c *SenderCore[X]) OnReceiverMove(from ids.NodeID, m *MoveMsg) {
	if sub := c.Sub(m.Subchannel); sub.Win.Announce(from, m.Position, c.Cfg.Receivers) {
		c.advanced(sub)
	}
}

// ReannounceMoves, the senders' tick, re-sends every subchannel's
// requested move to exactly the receivers whose announced window start
// still trails it. A Move is otherwise multicast once, so a receiver
// that was unreachable at that moment — crashed, restarting, behind a
// partition — would never learn that the window advanced: its Receive
// of a garbage-collected position would block instead of failing with
// TooOld (the signal for a checkpoint fetch), and the sender's window,
// which follows fr+1 receiver announcements, would stay pinned.
// Receivers answer a repeated Move with their start, moved or not, so
// the re-announcement itself repairs a lost announcement, and it stops
// once all have caught up.
func (c *SenderCore[X]) ReannounceMoves() {
	for sc, sub := range c.Subs {
		if p, lag := sub.Win.Unacknowledged(c.Cfg.Receivers.Members); len(lag) > 0 {
			c.Queue(TagMove, &MoveMsg{Subchannel: sc, Position: p}, lag...)
		}
	}
}

// ReceiverSub is one subchannel's state at a receiver endpoint.
type ReceiverSub[X any] struct {
	Win Window
	// Early holds verified submissions — a sender's Send payload, a
	// collector's certified payload — for positions beyond the window,
	// until fs+1 Moves bring the window there. The implementation puts;
	// the core drops and releases.
	Early       Hold[[]byte]
	senderMoves map[ids.NodeID]ids.Position
	delivered   map[ids.Position][]byte
	// waiting counts blocked Receive calls per position on channels
	// with Config.Resend, whose repair loop asks Stuck.
	waiting map[ids.Position]int
	// X is the implementation's own state for the subchannel.
	X X
}

func (sub *ReceiverSub[X]) held(peer ids.NodeID) int { return sub.Early.Len(peer) }

// Delivered reports whether position p has its payload.
func (sub *ReceiverSub[X]) Delivered(p ids.Position) bool {
	_, ok := sub.delivered[p]
	return ok
}

// Stuck returns the lowest in-window position that a Receive is blocked
// on and that has not been delivered, or 0.
func (sub *ReceiverSub[X]) Stuck() ids.Position {
	stuck := ids.Position(0)
	for p := range sub.waiting {
		if sub.Win.Contains(p) && !sub.Delivered(p) && (stuck == 0 || p < stuck) {
			stuck = p
		}
	}
	return stuck
}

// ReceiverCore is the receiver-side counterpart of SenderCore: Receive,
// MoveWindow, the rule that fs+1 senders' Moves move the window, the
// store of delivered payloads and the release of what was held early.
// An implementation embeds it and decides what makes a position
// deliverable. Everything here but Init runs under Mu (endpoint.go).
type ReceiverCore[X any] struct {
	subchannels[*ReceiverSub[X]]
	initX func(*X)
	prune func(*ReceiverSub[X])
	admit func(sub *ReceiverSub[X], from ids.NodeID, p ids.Position, payload []byte)
}

// Init prepares the core. initX fills the implementation's state of a
// new subchannel. Both hooks run after the window has moved: prune (may
// be nil) drops the implementation's state below the new start, then
// admit is handed every held submission the window now covers, exactly
// as if it had just arrived.
func (c *ReceiverCore[X]) Init(cfg Config, initX func(*X), prune func(*ReceiverSub[X]),
	admit func(sub *ReceiverSub[X], from ids.NodeID, p ids.Position, payload []byte)) error {
	c.Subs, c.initX, c.prune, c.admit = make(map[ids.Subchannel]*ReceiverSub[X]), initX, prune, admit
	return c.endpoint.init(cfg)
}

func (c *ReceiverCore[X]) sub(sc ids.Subchannel) *ReceiverSub[X] {
	sub, ok := c.Subs[sc]
	if !ok {
		sub = &ReceiverSub[X]{
			Win:         NewWindow(c.Cfg.Capacity),
			Early:       NewHold[[]byte](c.Cfg.Capacity),
			senderMoves: make(map[ids.NodeID]ids.Position),
			delivered:   make(map[ids.Position][]byte),
			waiting:     make(map[ids.Position]int),
		}
		c.initX(&sub.X)
		c.Subs[sc] = sub
	}
	return sub
}

// Deliver records the payload of in-window position p; the first one
// stands.
func (c *ReceiverCore[X]) Deliver(sub *ReceiverSub[X], p ids.Position, payload []byte) {
	if !sub.Delivered(p) {
		sub.delivered[p] = payload
		c.wake = true
	}
}

// moveWindow is MoveWindow: advance the local window, garbage collect,
// and announce the new start to the senders.
func (c *ReceiverCore[X]) moveWindow(sc ids.Subchannel, p ids.Position) {
	if c.moveLocked(c.sub(sc), p) {
		c.Queue(TagMove, &MoveMsg{Subchannel: sc, Position: p}, c.Cfg.Senders.Members...)
	}
}

// moveLocked advances the window to p, prunes below it and admits the
// held submissions it now covers; it reports whether the window moved.
func (c *ReceiverCore[X]) moveLocked(sub *ReceiverSub[X], p ids.Position) bool {
	if !sub.Win.Advance(p) {
		return false
	}
	for pos := range sub.delivered {
		if pos < sub.Win.Start {
			delete(sub.delivered, pos)
		}
	}
	if c.prune != nil {
		c.prune(sub)
	}
	sub.Early.Release(sub.Win, func(from ids.NodeID, pos ids.Position, payload []byte) {
		c.admit(sub, from, pos, payload)
	})
	c.wake = true
	return true
}

// OnSenderMove applies the fs+1-highest rule to a sender's Move
// (Figure 18, receiver side) and answers it where an answer is news. A
// Move that moves the window is answered to every sender. One that
// repeats what its sender asked before is answered to that sender: it
// re-announces only while our announced start trails its move, so our
// announcement raced a partition or a restart, and the re-announcement
// must be able to repair that by itself. A new Move that moves nothing
// needs no answer — whatever start we have, every sender was told.
func (c *ReceiverCore[X]) OnSenderMove(from ids.NodeID, m *MoveMsg) {
	sub := c.Arrived(m.Subchannel)
	repeat := m.Position <= sub.senderMoves[from]
	if !repeat {
		sub.senderMoves[from] = m.Position
		sub.Early.DropBelow(from, m.Position)
	}
	var to []ids.NodeID
	if c.moveLocked(sub, KHighest(sub.senderMoves, c.Cfg.Senders.Members, c.Cfg.Senders.F+1)) {
		to = c.Cfg.Senders.Members
	} else if repeat {
		to = []ids.NodeID{from}
	}
	c.Queue(TagMove, &MoveMsg{Subchannel: m.Subchannel, Position: sub.Win.Start}, to...)
}
