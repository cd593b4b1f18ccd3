// Package rc implements the IRMC with receiver-side collection
// (Figure 18 of the paper): every sender forwards its Send message to
// every receiver, and each receiver independently collects fs+1
// matching submissions before delivering. This maximizes throughput at
// the cost of wide-area bandwidth, the trade-off Figure 9 quantifies
// against IRMC-SC.
//
// A Send carries a pairwise MAC, like every IRMC envelope, and no
// signature: the receiver that counts it is the one it was sealed for,
// and nothing ever relays it, so no third party needs convincing (the
// same reason PBFT's prepares and commits carry MAC vectors). A
// Byzantine sender could always send different content to different
// receivers, signed or not; fs+1 matching Sends at one receiver still
// include a correct sender's. So neither side does public-key work:
// opening the envelope is the whole admission check.
//
// Windows, moves, early holds and their repair are irmc.SenderCore and
// irmc.ReceiverCore (the package comment of irmc states the rule), and
// the lock, the clock, the timers and the network are irmc's driver:
// everything here but Send's encoding runs under the endpoint lock and
// queues what it sends.
// What is particular here: a Send that reaches a receiver ahead of its
// window is held per sender and, when the window arrives, counted as
// that sender's one vote like any other; and because the fan-out is
// fire-and-forget, a channel with Config.Resend retains what it sent
// and re-transmits it to a receiver that asks.
package rc

import (
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/quorum"
	"spider/internal/wire"
)

// Sender is the IRMC-RC sender endpoint.
type Sender struct {
	irmc.SenderCore[senderState]
}

// senderState holds the encoded Send frame of every in-window position
// (Config.Resend only), pruned as the window advances; a retained frame
// is sealed again for the one receiver that missed the original fan-out.
type senderState struct {
	retained map[ids.Position][]byte
}

var _ irmc.Sender = (*Sender)(nil)

// NewSender creates the sender endpoint.
func NewSender(cfg irmc.Config) (*Sender, error) {
	s := &Sender{}
	err := s.Init(cfg, func(st *senderState) { st.retained = make(map[ids.Position][]byte) }, pruneRetained)
	if err != nil {
		return nil, err
	}
	s.Start(s.onFrames, cfg.ProgressInterval(), func(time.Time) { s.ReannounceMoves() })
	return s, nil
}

// pruneRetained is the sender's window hook: drop what the start passed.
func pruneRetained(sub *irmc.SenderSub[senderState]) {
	for p := range sub.X.retained {
		if p < sub.Win.Start {
			delete(sub.X.retained, p)
		}
	}
}

// Send implements irmc.Sender: it blocks while the position is beyond
// the window (which this sender's own MoveWindow has already moved),
// then seals the message for every receiver and sends it. RC ships the
// full payload to every receiver — the wide-area cost Figure 9 charges
// this implementation for, counted in SendBytes.
func (s *Sender) Send(sc ids.Subchannel, p ids.Position, msg []byte) error {
	stop := s.Cfg.Track()
	frame := s.Reg.EncodeFrame(irmc.TagSend, &irmc.SendMsg{Subchannel: sc, Position: p, Payload: msg})
	stop()
	return s.WaitWindow(sc, p, func(sub *irmc.SenderSub[senderState]) {
		if s.Cfg.Resend {
			sub.X.retained[p] = frame
		}
		s.QueueFrame(irmc.TagSend, frame, s.Cfg.Receivers.Members...)
	})
}

// onFrames admits the receivers' Move and Resend messages.
func (s *Sender) onFrames(from ids.NodeID, payloads [][]byte) {
	s.Admit(from, s.Cfg.Receivers.Contains(from), payloads, nil, nil, func(_ time.Time, tag wire.TypeTag, msg wire.Message) {
		switch tag {
		case irmc.TagMove:
			s.OnReceiverMove(from, msg.(*irmc.MoveMsg))
		case irmc.TagResend:
			s.onResend(from, msg.(*irmc.ResendMsg))
		}
	})
}

// onResend re-transmits retained in-window Sends at or above the
// requested position to the one receiver that asked. Positions the
// window has passed are omitted — the re-announced Move tells that
// receiver to move on, after which a checkpoint fetch covers the gap.
// Re-received Sends are harmless: the receiver's per-sender
// duplicate-vote guard makes admission idempotent.
func (s *Sender) onResend(from ids.NodeID, m *irmc.ResendMsg) {
	if !s.Cfg.Resend {
		return
	}
	sub := s.Sub(m.Subchannel)
	lo := max(m.From, sub.Win.Start)
	// Every retained entry is in-window by construction (Send admits
	// only in-window positions, and the window's advance prunes).
	to := []ids.NodeID{from}
	for p, frame := range sub.X.retained {
		if p >= lo {
			s.QueueFrame(irmc.TagSend, frame, to...)
		}
	}
}

// Receiver is the IRMC-RC receiver endpoint.
type Receiver struct {
	irmc.ReceiverCore[recvState]
}

type recvSub = irmc.ReceiverSub[recvState]

// recvState holds the senders' submissions, one per sender per
// position, grouped by payload digest; a position that reaches fs+1
// moves to the core's delivered store.
type recvState struct {
	sends *quorum.Collector[ids.Position, crypto.Digest, []byte]
	// lastStuck is what Stuck returned on the last tick (Config.Resend).
	lastStuck ids.Position
}

var _ irmc.Receiver = (*Receiver)(nil)

// NewReceiver creates the receiver endpoint.
func NewReceiver(cfg irmc.Config) (*Receiver, error) {
	r := &Receiver{}
	err := r.Init(cfg, func(st *recvState) {
		st.sends = quorum.New[ids.Position, crypto.Digest, []byte](quorum.Count(cfg.Senders.F+1), len(cfg.Senders.Members))
	}, func(sub *recvSub) { sub.X.sends.DropBelow(sub.Win.Start) }, r.admitLocked)
	if err != nil {
		return nil, err
	}
	var tick func(time.Time)
	if cfg.Resend {
		tick = r.nackStuck
	}
	r.Start(r.onFrames, cfg.CollectorTimeout(), tick)
	return r, nil
}

// nackStuck (Config.Resend only) is the tick, once per collector
// timeout; it looks for Receive calls stuck on an in-window, undelivered
// position. Healthy blocking — the next position simply has not been
// sent yet — clears within one interval; a position still stuck on two
// consecutive ticks means the original Send multicast was lost to this
// receiver (partition, restart), which no amount of waiting repairs
// under RC's fire-and-forget fan-out. All senders are then asked to
// re-transmit their retained Sends from the lowest stuck position.
func (r *Receiver) nackStuck(time.Time) {
	for sc, sub := range r.Subs {
		stuck := sub.Stuck()
		if stuck != 0 && stuck == sub.X.lastStuck {
			r.Queue(irmc.TagResend, &irmc.ResendMsg{Subchannel: sc, From: stuck}, r.Cfg.Senders.Members...)
		}
		sub.X.lastStuck = stuck
	}
}

// onFrames admits a drained run of frames from one sender. A Send whose
// MAC checks out goes straight to onSend: a repeat vote or a delivered
// position costs nothing there (admitLocked).
func (r *Receiver) onFrames(from ids.NodeID, payloads [][]byte) {
	r.Admit(from, r.Cfg.Senders.Contains(from), payloads, nil, nil, func(_ time.Time, tag wire.TypeTag, msg wire.Message) {
		switch tag {
		case irmc.TagSend:
			r.onSend(from, msg.(*irmc.SendMsg))
		case irmc.TagMove:
			r.OnSenderMove(from, msg.(*irmc.MoveMsg))
		}
	})
}

func (r *Receiver) onSend(from ids.NodeID, m *irmc.SendMsg) {
	sub := r.Arrived(m.Subchannel)
	switch {
	case m.Position > sub.Win.Max():
		sub.Early.Put(from, m.Position, m.Payload)
	case m.Position >= sub.Win.Start:
		r.admitLocked(sub, from, m.Position, m.Payload)
	}
}

// admitLocked counts from's submission for in-window position p and
// delivers the position once fs+1 senders agree: fs+1 identical
// submissions prove that at least one correct sender vouches for the
// content (IRMC-Correctness I).
func (r *Receiver) admitLocked(sub *recvSub, from ids.NodeID, p ids.Position, payload []byte) {
	if sub.Delivered(p) {
		return
	}
	digest := crypto.Hash(payload)
	if !sub.X.sends.Add(p, from, digest, payload) || !sub.X.sends.Reached(p, digest) {
		return
	}
	for _, first := range sub.X.sends.Matching(p, digest) {
		r.Deliver(sub, p, first)
		break
	}
	sub.X.sends.Drop(p)
}
