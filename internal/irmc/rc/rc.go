// Package rc implements the IRMC with receiver-side collection
// (Figure 18 of the paper): every sender forwards its signed Send
// message to every receiver, and each receiver independently collects
// fs+1 matching submissions before delivering. This maximizes
// throughput at the cost of wide-area bandwidth, the trade-off
// Figure 9 quantifies against IRMC-SC.
//
// Windows, moves, early holds and their repair are irmc.SenderCore and
// irmc.ReceiverCore (the package comment of irmc states the rule).
// What is particular here: a Send that reaches a receiver ahead of its
// window is held per sender and, when the window arrives, counted as
// that sender's one vote like any other; and because the fan-out is
// fire-and-forget, a channel with Config.Resend retains what it sent
// and re-transmits it to a receiver that asks.
package rc

import (
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/transport"
	"spider/internal/wire"
)

// Sender is the IRMC-RC sender endpoint.
type Sender struct {
	irmc.SenderCore[senderState]
}

// senderState holds the sealed Send envelope of every in-window
// position (Config.Resend only), pruned as the window advances. The
// envelope is recipient independent, so a retained entry can be re-sent
// verbatim to any receiver that missed the original multicast.
type senderState struct {
	retained map[ids.Position][]byte
}

var _ irmc.Sender = (*Sender)(nil)

// NewSender creates the sender endpoint and registers its transport
// handler.
func NewSender(cfg irmc.Config) (*Sender, error) {
	s := &Sender{}
	err := s.Init(cfg, func(st *senderState) { st.retained = make(map[ids.Position][]byte) }, pruneRetained)
	if err != nil {
		return nil, err
	}
	s.Start(nil)
	cfg.Node.Handle(cfg.Stream, s.onFrame)
	return s, nil
}

// pruneRetained is the sender's window hook: drop what the start passed.
func pruneRetained(sub *irmc.SenderSub[senderState]) func() {
	for p := range sub.X.retained {
		if p < sub.Win.Start {
			delete(sub.X.retained, p)
		}
	}
	return nil
}

// Send implements irmc.Sender: it blocks while the position is beyond
// the window (which this sender's own MoveWindow has already moved),
// then fans the signed message out to every receiver.
func (s *Sender) Send(sc ids.Subchannel, p ids.Position, msg []byte) error {
	if _, err := s.WaitWindow(sc, p); err != nil {
		return err
	}
	s.Mu.Unlock()

	stop := s.Cfg.Track()
	frame := s.Reg.EncodeFrame(irmc.TagSend, &irmc.SendMsg{Subchannel: sc, Position: p, Payload: msg})
	// The signature is recipient independent: seal once, send the
	// same bytes to every receiver.
	env, err := irmc.Seal(s.Cfg.Suite, irmc.TagSend, frame, ids.NoNode)
	stop()
	if err != nil {
		return err
	}
	if s.Cfg.SendBytes != nil {
		// RC ships the full envelope to every receiver — the wide-area
		// cost Figure 9 charges this implementation for.
		s.Cfg.SendBytes.Add(int64(len(env)) * int64(len(s.Cfg.Receivers.Members)))
	}
	if s.Cfg.Resend {
		s.Mu.Lock()
		if sub := s.Sub(sc); p >= sub.Win.Start {
			sub.X.retained[p] = env
		}
		s.Mu.Unlock()
	}
	s.Cfg.Node.Multicast(s.Cfg.Receivers.Members, s.Cfg.Stream, env)
	return nil
}

// onFrame handles inbound Move and Resend messages from receivers.
func (s *Sender) onFrame(from ids.NodeID, payload []byte) {
	stop := s.Cfg.Track()
	defer stop()
	if !s.Cfg.Receivers.Contains(from) {
		return
	}
	tag, msg, err := irmc.Open(s.Cfg.Suite, s.Reg, from, payload)
	if err != nil {
		return
	}
	switch tag {
	case irmc.TagMove:
		s.OnReceiverMove(from, msg.(*irmc.MoveMsg))
	case irmc.TagResend:
		s.onResend(from, msg.(*irmc.ResendMsg))
	}
}

// onResend re-transmits retained in-window envelopes at or above the
// requested position to the one receiver that asked. Positions the
// window has passed are omitted — the re-announced Move tells that
// receiver to move on, after which a checkpoint fetch covers the gap.
// Re-received Sends are harmless: the receiver's per-sender
// duplicate-vote guard makes admission idempotent.
func (s *Sender) onResend(from ids.NodeID, m *irmc.ResendMsg) {
	if !s.Cfg.Resend {
		return
	}
	s.Mu.Lock()
	if s.Closed() {
		s.Mu.Unlock()
		return
	}
	sub := s.Sub(m.Subchannel)
	lo := max(m.From, sub.Win.Start)
	// Walk the retained map itself rather than [lo, win.Max()]: every
	// retained entry is in-window by construction (pruned on advance),
	// and an adaptively shrunk effective capacity must not hide
	// positions sent while the window was wider.
	var envs [][]byte
	for p, env := range sub.X.retained {
		if p >= lo {
			envs = append(envs, env)
		}
	}
	s.Mu.Unlock()
	for _, env := range envs {
		if s.Cfg.SendBytes != nil {
			s.Cfg.SendBytes.Add(int64(len(env)))
		}
		s.Cfg.Node.Send(from, s.Cfg.Stream, env)
	}
}

// Receiver is the IRMC-RC receiver endpoint.
type Receiver struct {
	irmc.ReceiverCore[recvState]

	// lanes run signature verification of inbound Send messages on
	// the crypto pipeline, one lane per sender so each peer's frames
	// are admitted in arrival order while the RSA checks of different
	// messages overlap across cores.
	lanes *irmc.OpenLanes
}

type recvSub = irmc.ReceiverSub[recvState]

// recvState holds the positions still collecting votes; a position
// that reaches fs+1 moves to the core's delivered store.
type recvState struct {
	slots map[ids.Position]*slot
}

// slot collects per-position submissions until fs+1 senders agree.
type slot struct {
	votes    map[ids.NodeID]crypto.Digest
	payloads map[crypto.Digest][]byte
}

var _ irmc.Receiver = (*Receiver)(nil)

// NewReceiver creates the receiver endpoint and registers its
// transport handler.
func NewReceiver(cfg irmc.Config) (*Receiver, error) {
	r := &Receiver{}
	err := r.Init(cfg, func(st *recvState) { st.slots = make(map[ids.Position]*slot) }, pruneSlots, r.admitLocked)
	if err != nil {
		return nil, err
	}
	r.lanes = irmc.NewOpenLanes(cfg, r.Reg, cfg.Senders.Members)
	if cfg.Resend {
		lastStuck := make(map[ids.Subchannel]ids.Position)
		r.Every(cfg.CollectorTimeout(), func() { r.nackStuck(lastStuck) })
	}
	transport.RegisterBatch(cfg.Node, cfg.Stream, r.onFrames)
	return r, nil
}

func pruneSlots(sub *recvSub) {
	for p := range sub.X.slots {
		if p < sub.Win.Start {
			delete(sub.X.slots, p)
		}
	}
}

// nackStuck (Config.Resend only) runs once per collector timeout and
// looks for Receive calls stuck on an in-window, undelivered position.
// Healthy blocking — the next position simply has not been sent yet —
// clears within one interval; a position still stuck on two consecutive
// ticks means the original Send multicast was lost to this receiver
// (partition, restart), which no amount of waiting repairs under RC's
// fire-and-forget fan-out. All senders are then asked to re-transmit
// their retained envelopes from the lowest stuck position.
func (r *Receiver) nackStuck(lastStuck map[ids.Subchannel]ids.Position) {
	var nacks []irmc.ResendMsg
	r.Mu.Lock()
	if !r.Closed() {
		for sc, sub := range r.Subs {
			stuck := sub.Stuck()
			if stuck == 0 {
				delete(lastStuck, sc)
				continue
			}
			if lastStuck[sc] == stuck {
				nacks = append(nacks, irmc.ResendMsg{Subchannel: sc, From: stuck})
			}
			lastStuck[sc] = stuck
		}
	}
	r.Mu.Unlock()
	for i := range nacks {
		r.Post(irmc.TagResend, &nacks[i], r.Cfg.Senders.Members...)
	}
}

// onFrames admits a drained run of frames from one sender through the
// crypto pipeline in a single batch submission. A Send is asked about
// (wantSend) before its signature is checked.
func (r *Receiver) onFrames(from ids.NodeID, payloads [][]byte) {
	r.lanes.SubmitBatch(from, payloads, func(tag wire.TypeTag, msg wire.Message) bool {
		return tag != irmc.TagSend || r.wantSend(from, msg.(*irmc.SendMsg))
	}, nil, func(tag wire.TypeTag, msg wire.Message) {
		switch tag {
		case irmc.TagSend:
			r.onSend(from, msg.(*irmc.SendMsg))
		case irmc.TagMove:
			r.OnSenderMove(from, msg.(*irmc.MoveMsg))
		}
	})
}

// wantSend is the admission pre-check (see irmc.OpenLanes) for a Send
// whose signature has not been verified yet. A valid one changes
// nothing below the window, once the position is delivered, or when
// this sender's verified vote is already counted. Positions beyond the
// window have no slot and go on to be verified and held.
func (r *Receiver) wantSend(from ids.NodeID, m *irmc.SendMsg) bool {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.Closed() {
		return false
	}
	sub, ok := r.Subs[m.Subchannel]
	if !ok {
		return true
	}
	if m.Position < sub.Win.Start || sub.Delivered(m.Position) {
		return false
	}
	sl, ok := sub.X.slots[m.Position]
	if !ok {
		return true
	}
	_, voted := sl.votes[from]
	return !voted
}

func (r *Receiver) onSend(from ids.NodeID, m *irmc.SendMsg) {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.Closed() {
		return
	}
	sub := r.Arrived(m.Subchannel)
	switch {
	case m.Position > sub.Win.Max():
		sub.Early.Put(from, m.Position, m.Payload)
	case m.Position >= sub.Win.Start:
		r.admitLocked(sub, from, m.Position, m.Payload)
	}
}

// admitLocked counts from's submission for in-window position p and
// delivers the position once fs+1 senders agree.
func (r *Receiver) admitLocked(sub *recvSub, from ids.NodeID, p ids.Position, payload []byte) {
	if sub.Delivered(p) {
		return
	}
	sl, ok := sub.X.slots[p]
	if !ok {
		sl = &slot{
			votes:    make(map[ids.NodeID]crypto.Digest),
			payloads: make(map[crypto.Digest][]byte),
		}
		sub.X.slots[p] = sl
	}
	if _, dup := sl.votes[from]; dup {
		return // one submission per sender per position
	}
	digest := crypto.Hash(payload)
	sl.votes[from] = digest
	if _, ok := sl.payloads[digest]; !ok {
		sl.payloads[digest] = payload
	}
	matching := 0
	for _, d := range sl.votes {
		if d == digest {
			matching++
		}
	}
	// fs+1 identical submissions prove at least one correct sender
	// vouches for the content (IRMC-Correctness I).
	if matching >= r.Cfg.Senders.F+1 {
		r.Deliver(sub, p, sl.payloads[digest])
		delete(sub.X.slots, p)
	}
}
