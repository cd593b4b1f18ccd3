package irmc

import (
	"spider/internal/ids"
	"spider/internal/wire"
)

// Admit opens a run of frames that arrived back to back from one peer
// and hands each to deliver, in arrival order, on the calling goroutine:
// the transport's delivery goroutine for that peer, so each peer's frames
// are checked in order while different peers' checks already run side
// by side. A frame from a non-member (member false) is dropped before
// any crypto work. All three channel endpoints that do public-key
// verification on inbound traffic admit through it.
//
// It is also their one admission seam. Each of them collects a quorum
// of public-key-authenticated messages per position — fs+1 Sends, fs+1
// shares, one certificate — and what arrives after the quorum is in
// would be verified only to be discarded. So between the cheap part of
// opening a frame (decoding, the MAC check of a MAC'd tag) and the
// expensive part (a Send's signature, a share's, a certificate's share
// set) the endpoint is asked, under its own lock, whether a valid frame
// from this peer for this position could still change anything
// (wanted). A pre-check may only drop: the content of a Send is not
// vouched for yet, so the answer reads endpoint state and nothing else —
// it never creates a subchannel, records a vote or reserves a place, and
// a forged frame cannot keep the next valid one from being verified.
// verify, when non-nil, then runs the extra checks on the decoded
// message (share signatures, certificate share sets). A frame that fails
// to open or to verify is dropped. Each frame's work is charged to the
// endpoint's CPU meter.
func (e *endpoint) Admit(from ids.NodeID, member bool, payloads [][]byte,
	wanted func(wire.TypeTag, wire.Message) bool,
	verify func(wire.TypeTag, wire.Message) error,
	deliver func(wire.TypeTag, wire.Message)) {
	if !member {
		return
	}
	for _, payload := range payloads {
		stop := e.Cfg.Track()
		tag, msg, err := openWanted(e.Cfg.Suite, e.Reg, from, payload, wanted)
		if err == nil && verify != nil {
			err = verify(tag, msg)
		}
		if err == nil {
			deliver(tag, msg)
		}
		stop()
	}
}
