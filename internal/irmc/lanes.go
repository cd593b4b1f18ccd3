package irmc

import (
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/wire"
)

// OpenLanes admits an endpoint's inbound frames through the crypto
// pipeline: one lane per peer, so each peer's frames are opened and
// dispatched in arrival order while the signature checks of different
// frames overlap across workers. Frames from unknown peers are
// dropped before any crypto work. All three channel endpoints that do
// public-key verification on inbound traffic share this helper.
//
// It is also their one admission seam. Each of them collects a quorum
// of public-key-authenticated messages per position — fs+1 Sends, fs+1
// shares, one certificate — and what arrives after the quorum is in
// would be verified only to be discarded. So between the cheap part of
// opening a frame (decoding, the MAC check of a MAC'd tag) and the
// expensive part (a Send's signature, a share's, a certificate's share
// set) the endpoint is asked, under its own lock, whether a valid
// frame from this peer for this position could still change anything.
// A pre-check may only drop: the content of a Send is not vouched for
// yet, so the answer reads endpoint state and nothing else — it never
// creates a subchannel, records a vote or reserves a place, and a
// forged frame cannot keep the next valid one from being verified.
type OpenLanes struct {
	cfg   Config
	reg   *wire.Registry
	lanes map[ids.NodeID]*crypto.Lane
}

// NewOpenLanes builds the lane set for the union of the given peer
// groups.
func NewOpenLanes(cfg Config, reg *wire.Registry, peerGroups ...[]ids.NodeID) *OpenLanes {
	ol := &OpenLanes{
		cfg:   cfg,
		reg:   reg,
		lanes: make(map[ids.NodeID]*crypto.Lane),
	}
	for _, group := range peerGroups {
		for _, p := range group {
			if _, ok := ol.lanes[p]; !ok {
				ol.lanes[p] = cfg.Pipe().NewLane()
			}
		}
	}
	return ol
}

// SubmitBatch admits a run of frames that arrived back-to-back from
// one peer: all of them enter the peer's lane in a single GoBatch
// submission, so a drained link queue pays the pipeline queue locking
// once per run instead of once per frame, and the decoded messages
// reach deliver in per-peer submission order. wanted is the admission
// pre-check described on OpenLanes. verify, when non-nil, then runs
// the extra CPU-bound checks on the decoded message while still on the
// pipeline (share signatures, certificate share sets); a non-nil error
// from opening the frame or from verify drops it. All closures are
// wrapped in the endpoint's CPU meter accounting.
func (ol *OpenLanes) SubmitBatch(from ids.NodeID, payloads [][]byte,
	wanted func(wire.TypeTag, wire.Message) bool,
	verify func(wire.TypeTag, wire.Message) error,
	deliver func(wire.TypeTag, wire.Message)) {
	lane := ol.lanes[from]
	if lane == nil {
		return // not a known peer
	}
	jobs := make([]crypto.Job, len(payloads))
	for i, payload := range payloads {
		var (
			tag wire.TypeTag
			msg wire.Message
		)
		jobs[i] = crypto.Job{
			Compute: func() error {
				stop := ol.cfg.Track()
				defer stop()
				var err error
				tag, msg, err = openWanted(ol.cfg.Suite, ol.reg, from, payload, wanted)
				if err != nil {
					return err
				}
				if verify != nil {
					return verify(tag, msg)
				}
				return nil
			},
			Deliver: func(err error) {
				if err != nil {
					return
				}
				stop := ol.cfg.Track()
				defer stop()
				deliver(tag, msg)
			},
		}
	}
	lane.GoBatch(jobs)
}
