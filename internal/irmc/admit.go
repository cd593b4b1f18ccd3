package irmc

import (
	"time"

	"spider/internal/ids"
	"spider/internal/wire"
)

// Admit opens a run of frames that arrived back to back from one peer
// and hands each to deliver, in arrival order, on the calling goroutine:
// the transport's delivery goroutine for that peer, so each peer's frames
// are checked in order while different peers' checks already run side
// by side. A frame from a non-member (member false) is dropped before
// any crypto work. Every endpoint of both implementations admits its
// peers' frames through it.
//
// It is also their one admission seam. Opening a frame is cheap: the
// envelope's MAC is the whole check of who sent it. Two IRMC-SC
// endpoints then have public-key work to do — a share's signature, a
// certificate's share set — and collect a quorum of such messages per
// position, so what arrives after the quorum is in would be verified
// only to be discarded. Between opening and that work the endpoint is
// asked, under Mu, whether a valid frame from this peer for this
// position could still change anything (wanted, when non-nil). A
// pre-check may only drop: the content is not vouched for yet, so the
// answer reads endpoint state and nothing else — it never creates a
// subchannel, records a vote or reserves a place, and a forged frame
// cannot keep the next valid one from being verified. verify, when
// non-nil, then runs the public-key checks on the decoded message
// without the lock. A frame that fails to open, is not wanted or fails
// to verify is dropped; deliver gets the others under Mu, with the time
// the run arrived, and what it queues is sent before the next frame.
// Each frame's work is charged to the endpoint's CPU meter.
func (e *endpoint) Admit(from ids.NodeID, member bool, payloads [][]byte,
	wanted func(wire.TypeTag, wire.Message) bool,
	verify func(wire.TypeTag, wire.Message) error,
	deliver func(now time.Time, tag wire.TypeTag, msg wire.Message)) {
	if !member {
		return
	}
	now := time.Now()
	for _, payload := range payloads {
		stop := e.Cfg.Track()
		tag, msg, err := Open(e.Cfg.Suite, e.Reg, from, payload)
		if err == nil && (wanted == nil || e.wanted(wanted, tag, msg)) && (verify == nil || verify(tag, msg) == nil) {
			e.Mu.Lock()
			if !e.closed {
				deliver(now, tag, msg)
			}
			e.unlock()
		}
		stop()
	}
}

// wanted asks the pre-check under Mu; a closed endpoint wants nothing.
func (e *endpoint) wanted(wanted func(wire.TypeTag, wire.Message) bool, tag wire.TypeTag, msg wire.Message) bool {
	e.Mu.Lock()
	defer e.Mu.Unlock()
	return !e.closed && wanted(tag, msg)
}
