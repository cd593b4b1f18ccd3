// Package irmc defines the inter-regional message channel (IRMC), the
// abstraction at the heart of Spider's modular architecture
// (Section 3.2 of the paper). An IRMC forwards messages from a group
// of sender replicas in one region to a group of receiver replicas in
// another. It is divided into independent subchannels with
// first-in-first-out semantics, bounded capacity, and window-based
// flow control; a message is only delivered once at least fs+1 senders
// submitted identical content for the same subchannel position, so a
// Byzantine minority cannot inject traffic.
//
// The window rule, for every implementation. A subchannel's window
// covers Capacity positions from its start. A sender's start is the
// higher of its own last MoveWindow, which takes effect there at once,
// and the (fr+1)-highest start the receivers have announced
// (SenderWindow); so MoveWindow(sc, p) followed by Send(sc, p, m) never
// waits for the receivers (Figure 16, lines 21–22, issues the two back
// to back), and Send waits only for a position more than a window
// beyond both. A receiver's start follows fs+1 senders' Moves or its
// own MoveWindow, never one sender; delivery needs fs+1 identical
// submissions inside that window, and Receive never returns a position
// outside it. Senders therefore run ahead of one another and of the
// receivers, and what reaches an endpoint before its window does is
// held, not dropped — per subchannel and peer at most Capacity entries
// (Hold) — and goes through the ordinary admission when the window
// arrives. A sender repeats its Move to the receivers whose announced
// start still trails it, a receiver answers a repeated Move with its
// start, and so a move or an announcement lost to a partition or a
// restart repairs itself.
//
// All of that is written once, in SenderCore and ReceiverCore (core.go).
// The two implementations embed them and differ only in how fs+1
// submissions are collected: rc (receiver-side collection, Figure 18)
// and sc (sender-side collection with collectors, Figures 19–20). Both
// satisfy the conformance suite in irmctest, which encodes the
// IRMC-Correctness and IRMC-Liveness properties of Appendix A.5.
//
// Core and driver. The cores and both implementations are protocol
// code only: they never take a lock, read the clock, start a goroutine
// or touch the network (TestCorePurity). The driver, endpoint.go and
// admit.go, owns those: the one lock per endpoint, the blocking waits
// in Send and Receive, admission of inbound frames (Admit), one timer
// per endpoint that calls the core's tick with the time, and the
// outbox. Core code runs with the lock held and queues what it sends;
// the driver helper that releases the lock then seals and sends the
// queue, in order, without it.
package irmc

import (
	"errors"
	"fmt"
	"sort"

	"spider/internal/ids"
)

// ErrClosed is returned by blocked operations when the endpoint shuts
// down.
var ErrClosed = errors.New("irmc: endpoint closed")

// TooOldError reports that the flow-control window has moved past the
// requested position. NewStart is the window's new lower bound; the
// caller reacts by skipping forward (agreement replicas) or fetching a
// checkpoint (execution replicas), per Section 3.4.
type TooOldError struct {
	NewStart ids.Position
}

func (e *TooOldError) Error() string {
	return fmt.Sprintf("irmc: position too old, window starts at %d", e.NewStart)
}

// AsTooOld extracts a TooOldError from err, if present.
func AsTooOld(err error) (*TooOldError, bool) {
	var tooOld *TooOldError
	if errors.As(err, &tooOld) {
		return tooOld, true
	}
	return nil, false
}

// Sender is the sender-side endpoint interface (Figure 14); the package
// comment states the window rule behind it. The window's capacity is
// Config.Capacity, fixed for the channel: the paper's built-in flow
// control.
type Sender interface {
	// Send submits msg for subchannel sc at position p. It blocks
	// while p lies beyond the window's upper bound, returns a
	// *TooOldError immediately if the window has moved past p, and
	// returns ErrClosed after Close.
	Send(sc ids.Subchannel, p ids.Position, msg []byte) error
	// MoveWindow moves this sender's window on the subchannel so that
	// it starts at p, at once: positions below p become too old here,
	// blocked Sends the moved window admits proceed. It also asks the
	// receiver side to follow, which it does once fs+1 senders have
	// asked. Positions only move forward; calls with lower positions
	// are ignored.
	MoveWindow(sc ids.Subchannel, p ids.Position)
	// Close releases the endpoint and unblocks pending calls.
	Close()
}

// Receiver is the receiver-side endpoint interface (Figure 14).
type Receiver interface {
	// Receive blocks until the message for subchannel sc at position
	// p is deliverable (fs+1 identical submissions), the window has
	// moved past p (*TooOldError), or the endpoint closes (ErrClosed).
	Receive(sc ids.Subchannel, p ids.Position) ([]byte, error)
	// MoveWindow advances the local subchannel window so that it
	// starts at p, permitting garbage collection of older positions
	// and notifying the sender side.
	MoveWindow(sc ids.Subchannel, p ids.Position)
	// Close releases the endpoint and unblocks pending calls.
	Close()
}

// Window is one subchannel's flow-control window: positions
// [Start, Start+Capacity-1] are admissible.
type Window struct {
	Start    ids.Position
	Capacity int
}

// NewWindow returns a window anchored at position 1, matching the
// paper's initialization.
func NewWindow(capacity int) Window {
	return Window{Start: 1, Capacity: capacity}
}

// Max returns the inclusive upper bound.
func (w Window) Max() ids.Position {
	return w.Start + ids.Position(w.Capacity) - 1
}

// Contains reports whether p is inside the window.
func (w Window) Contains(p ids.Position) bool {
	return p >= w.Start && p <= w.Max()
}

// Advance moves the window start forward to p; it never moves
// backwards. It reports whether the window changed.
func (w *Window) Advance(p ids.Position) bool {
	if p <= w.Start {
		return false
	}
	w.Start = p
	return true
}

// SenderWindow is the sender side of one subchannel's window, shared by
// both implementations. Its start is the higher of two positions: the
// move this sender itself requested, which takes effect here at once
// (the caller of MoveWindow has declared everything below obsolete, so
// nothing is gained by waiting a round trip for the receivers to say
// so too), and the (fr+1)-highest start announced by the receivers,
// which at least one correct receiver endorsed. A receiver window is
// not affected by either until fs+1 senders have requested the move.
type SenderWindow struct {
	Window
	own      ids.Position                // highest move this sender requested (0: none)
	recvWins map[ids.NodeID]ids.Position // window starts announced by receivers
}

// NewSenderWindow returns a sender window anchored at position 1.
func NewSenderWindow(capacity int) SenderWindow {
	return SenderWindow{
		Window:   NewWindow(capacity),
		recvWins: make(map[ids.NodeID]ids.Position),
	}
}

// Request records this sender's own move to p. fresh reports whether p
// is beyond every earlier request (the Move must then be announced to
// the receivers), advanced whether the window start moved.
func (w *SenderWindow) Request(p ids.Position) (fresh, advanced bool) {
	if p <= w.own {
		return false, false
	}
	w.own = p
	return true, w.Advance(p)
}

// Announce records receiver from's announced window start and reports
// whether the window start moved to the new (fr+1)-highest one.
func (w *SenderWindow) Announce(from ids.NodeID, p ids.Position, receivers ids.Group) bool {
	if p <= w.recvWins[from] {
		return false // announcements only move forward
	}
	w.recvWins[from] = p
	return w.Advance(KHighest(w.recvWins, receivers.Members, receivers.F+1))
}

// Unacknowledged returns this sender's requested move and the
// receivers whose announced start still trails it.
func (w *SenderWindow) Unacknowledged(receivers []ids.NodeID) (ids.Position, []ids.NodeID) {
	if w.own == 0 {
		return 0, nil
	}
	var lag []ids.NodeID
	for _, nid := range receivers {
		if w.recvWins[nid] < w.own {
			lag = append(lag, nid)
		}
	}
	return w.own, lag
}

// KHighest returns the k-th highest position in values (k >= 1).
// Missing peers count as position 1 (the initial window start). It is
// the primitive behind the fr+1-highest / fs+1-highest window rules:
// taking the (f+1)-th highest request guarantees at least one correct
// replica endorsed moving that far.
func KHighest(values map[ids.NodeID]ids.Position, members []ids.NodeID, k int) ids.Position {
	if k < 1 || k > len(members) {
		return 1
	}
	all := make([]ids.Position, 0, len(members))
	for _, m := range members {
		v, ok := values[m]
		if !ok {
			v = 1
		}
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	return all[k-1]
}
