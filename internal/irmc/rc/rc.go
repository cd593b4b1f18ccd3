// Package rc implements the IRMC with receiver-side collection
// (Figure 18 of the paper): every sender forwards its signed Send
// message to every receiver, and each receiver independently collects
// fs+1 matching submissions before delivering. This maximizes
// throughput at the cost of wide-area bandwidth, the trade-off
// Figure 9 quantifies against IRMC-SC.
//
// Window rule: a sender's window starts at the higher of its own
// MoveWindow and the (fr+1)-highest start the receivers announced
// (irmc.SenderWindow), so MoveWindow followed by Send costs no round
// trip; a receiver's window moves on fs+1 senders' Moves or its own
// MoveWindow, never on less. A Send that reaches a receiver ahead of
// its window — the sender moved first — is neither dropped nor
// counted: the receiver holds it (irmc.Hold: per subchannel and
// sender at most Capacity entries, those within Capacity positions of
// the sender's newest; dropped when that sender's Move or the window
// passes them) and runs it through the ordinary fs+1 matching when the
// window reaches it. Receive never returns a position outside the
// window.
package rc

import (
	"sync"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/transport"
	"spider/internal/wire"
)

// Sender is the IRMC-RC sender endpoint.
type Sender struct {
	cfg irmc.Config
	reg *wire.Registry

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	stop   chan struct{}
	subs   map[ids.Subchannel]*senderSub
}

type senderSub struct {
	win irmc.SenderWindow
	// retained holds the sealed Send envelope of every in-window
	// position (Config.Resend only), pruned as the window advances.
	// The envelope is recipient independent, so a retained entry can
	// be re-sent verbatim to any receiver that missed the original
	// multicast.
	retained map[ids.Position][]byte
	// Flow instrumentation for window auto-sizing (read via FlowStats):
	// acked counts positions the fr+1 receiver quorum has drained past
	// (positions this sender's own move skipped are not drained and do
	// not count until the receivers announce them), blocked counts Send
	// calls that had to wait on a full window, highSent is the highest
	// position handed to Send. Plain counters under s.mu — the hot path
	// already holds it.
	acked    int64
	blocked  int64
	highSent ids.Position
}

var _ irmc.Sender = (*Sender)(nil)

// NewSender creates the sender endpoint and registers its transport
// handler.
func NewSender(cfg irmc.Config) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sender{
		cfg:  cfg,
		reg:  irmc.NewRegistry(),
		stop: make(chan struct{}),
		subs: make(map[ids.Subchannel]*senderSub),
	}
	s.cond = sync.NewCond(&s.mu)
	cfg.Node.Handle(cfg.Stream, s.onFrame)
	go s.moveLoop()
	return s, nil
}

// moveLoop periodically re-announces the sender's window move to
// receivers that have not yet acknowledged it. A MoveMsg is otherwise
// multicast exactly once, so a receiver that is unreachable when the
// move happens — crashed, restarting, or behind a partition — would
// never learn the window advanced: its Receive of a garbage-collected
// position would block forever instead of failing with TooOld (the
// signal that triggers a checkpoint fetch), and the sender's own
// window, which advances on fr+1 receiver acknowledgments, would stay
// pinned, eventually blocking Send. Re-announcing until every receiver
// has acknowledged restores liveness after the link heals.
func (s *Sender) moveLoop() {
	interval := time.Duration(s.cfg.ProgressIntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.reannounceMoves()
	}
}

// reannounceMoves re-sends the current window move of every subchannel
// to exactly the receivers whose last acknowledged window start still
// trails it.
func (s *Sender) reannounceMoves() {
	type pending struct {
		sc  ids.Subchannel
		pos ids.Position
		to  []ids.NodeID
	}
	var work []pending
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	for sc, sub := range s.subs {
		if pos, lag := sub.win.Unacknowledged(s.cfg.Receivers.Members); len(lag) > 0 {
			work = append(work, pending{sc: sc, pos: pos, to: lag})
		}
	}
	s.mu.Unlock()
	for _, w := range work {
		stop := s.cfg.Track()
		frame := s.reg.EncodeFrame(irmc.TagMove, &irmc.MoveMsg{Subchannel: w.sc, Position: w.pos})
		envs := irmc.SealAll(s.cfg.Suite, irmc.TagMove, frame, w.to)
		stop()
		for _, se := range envs {
			s.cfg.Node.Send(se.To, s.cfg.Stream, se.Env)
		}
	}
}

func (s *Sender) sub(sc ids.Subchannel) *senderSub {
	sub, ok := s.subs[sc]
	if !ok {
		sub = &senderSub{
			win:      irmc.NewSenderWindow(s.cfg.Capacity),
			retained: make(map[ids.Position][]byte),
		}
		s.subs[sc] = sub
	}
	return sub
}

// Send implements irmc.Sender: it blocks while the position is beyond
// the window (which this sender's own MoveWindow has already moved),
// then fans the signed message out to every receiver.
func (s *Sender) Send(sc ids.Subchannel, p ids.Position, msg []byte) error {
	s.mu.Lock()
	sub := s.sub(sc)
	if !s.closed && p > sub.win.Max() {
		// A window-full stall is the auto-sizer's grow signal: the
		// round-trip to the fr+1 ack quorum is serializing sends.
		sub.blocked++
	}
	for !s.closed && p > sub.win.Max() {
		s.cond.Wait()
		sub = s.sub(sc)
	}
	if s.closed {
		s.mu.Unlock()
		return irmc.ErrClosed
	}
	if p < sub.win.Start {
		start := sub.win.Start
		s.mu.Unlock()
		return &irmc.TooOldError{NewStart: start}
	}
	if p > sub.highSent {
		sub.highSent = p
	}
	s.mu.Unlock()

	stop := s.cfg.Track()
	frame := s.reg.EncodeFrame(irmc.TagSend, &irmc.SendMsg{Subchannel: sc, Position: p, Payload: msg})
	// The signature is recipient independent: seal once, send the
	// same bytes to every receiver.
	env, err := irmc.Seal(s.cfg.Suite, irmc.TagSend, frame, ids.NoNode)
	stop()
	if err != nil {
		return err
	}
	if s.cfg.SendBytes != nil {
		// RC ships the full envelope to every receiver — the wide-area
		// cost Figure 9 charges this implementation for.
		s.cfg.SendBytes.Add(int64(len(env)) * int64(len(s.cfg.Receivers.Members)))
	}
	if s.cfg.Resend {
		s.mu.Lock()
		sub = s.sub(sc)
		if p >= sub.win.Start {
			sub.retained[p] = env
		}
		s.mu.Unlock()
	}
	s.cfg.Node.Multicast(s.cfg.Receivers.Members, s.cfg.Stream, env)
	return nil
}

// MoveWindow implements irmc.Sender: the local window starts at p from
// now on, and the receivers are asked to follow.
func (s *Sender) MoveWindow(sc ids.Subchannel, p ids.Position) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	sub := s.sub(sc)
	fresh, advanced := sub.win.Request(p)
	if advanced {
		s.advancedLocked(sub)
	}
	s.mu.Unlock()
	if !fresh {
		return
	}

	stop := s.cfg.Track()
	frame := s.reg.EncodeFrame(irmc.TagMove, &irmc.MoveMsg{Subchannel: sc, Position: p})
	envs := irmc.SealAll(s.cfg.Suite, irmc.TagMove, frame, s.cfg.Receivers.Members)
	stop()
	for _, se := range envs {
		s.cfg.Node.Send(se.To, s.cfg.Stream, se.Env)
	}
}

// Close implements irmc.Sender.
func (s *Sender) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// onFrame handles inbound Move and Resend messages from receivers.
func (s *Sender) onFrame(from ids.NodeID, payload []byte) {
	stop := s.cfg.Track()
	defer stop()
	if !s.cfg.Receivers.Contains(from) {
		return
	}
	tag, msg, err := irmc.Open(s.cfg.Suite, s.reg, from, payload)
	if err != nil {
		return
	}
	switch tag {
	case irmc.TagMove:
		s.onReceiverMove(from, msg.(*irmc.MoveMsg))
	case irmc.TagResend:
		s.onResend(from, msg.(*irmc.ResendMsg))
	}
}

func (s *Sender) onReceiverMove(from ids.NodeID, move *irmc.MoveMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	sub := s.sub(move.Subchannel)
	drained, advanced := sub.win.Announce(from, move.Position, s.cfg.Receivers)
	// Every position the receiver quorum moved past has been drained:
	// the drain-rate input of window auto-sizing.
	sub.acked += drained
	if advanced {
		s.advancedLocked(sub)
	}
}

// advancedLocked prunes what the moved window start no longer covers
// and wakes blocked Sends.
func (s *Sender) advancedLocked(sub *senderSub) {
	for p := range sub.retained {
		if p < sub.win.Start {
			delete(sub.retained, p)
		}
	}
	s.cond.Broadcast()
}

// FlowStats reports the subchannel's cumulative flow counters and
// current window occupancy, the inputs of adaptive window sizing.
func (s *Sender) FlowStats(sc ids.Subchannel) irmc.FlowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub := s.sub(sc)
	out := irmc.FlowStats{
		Acked:    sub.acked,
		Blocked:  sub.blocked,
		Capacity: sub.win.Capacity,
	}
	if sub.highSent >= sub.win.Start {
		out.Outstanding = int(sub.highSent - sub.win.Start + 1)
	}
	return out
}

// SetCapacity throttles the subchannel's effective send window to n
// positions, clamped to [1, Config.Capacity]. This is a sender-local
// decision — receivers keep their configured capacity and a smaller
// sender window is always inside it, so the Move/ack protocol, fs+1
// matching and Resend repair are untouched; shrinking simply makes
// Send block earlier, bounding in-flight memory, and the auto-sizer
// never shrinks below the positions currently outstanding.
func (s *Sender) SetCapacity(sc ids.Subchannel, n int) {
	if n < 1 {
		n = 1
	}
	if n > s.cfg.Capacity {
		n = s.cfg.Capacity
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	sub := s.sub(sc)
	if n == sub.win.Capacity {
		return
	}
	grew := n > sub.win.Capacity
	sub.win.Capacity = n
	if grew {
		s.cond.Broadcast()
	}
}

// onResend re-transmits retained in-window envelopes at or above the
// requested position to the one receiver that asked. Positions the
// window has passed are omitted — the moveLoop's re-announcement tells
// that receiver to move on, after which a checkpoint fetch covers the
// gap. Re-received Sends are harmless: the receiver's per-sender
// duplicate-vote guard makes admission idempotent.
func (s *Sender) onResend(from ids.NodeID, m *irmc.ResendMsg) {
	if !s.cfg.Resend {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	sub := s.sub(m.Subchannel)
	lo := m.From
	if lo < sub.win.Start {
		lo = sub.win.Start
	}
	// Walk the retained map itself rather than [lo, win.Max()]: every
	// retained entry is in-window by construction (pruned on advance),
	// and an adaptively shrunk effective capacity must not hide
	// positions sent while the window was wider.
	var envs [][]byte
	for p, env := range sub.retained {
		if p >= lo {
			envs = append(envs, env)
		}
	}
	s.mu.Unlock()
	for _, env := range envs {
		if s.cfg.SendBytes != nil {
			s.cfg.SendBytes.Add(int64(len(env)))
		}
		s.cfg.Node.Send(from, s.cfg.Stream, env)
	}
}

// Receiver is the IRMC-RC receiver endpoint.
type Receiver struct {
	cfg irmc.Config
	reg *wire.Registry

	// lanes run signature verification of inbound Send messages on
	// the crypto pipeline, one lane per sender so each peer's frames
	// are admitted in arrival order while the RSA checks of different
	// messages overlap across cores.
	lanes *irmc.OpenLanes

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	stop   chan struct{}
	subs   map[ids.Subchannel]*recvSub
}

type recvSub struct {
	win         irmc.Window
	senderMoves map[ids.NodeID]ids.Position
	slots       map[ids.Position]*slot
	// early holds Send payloads that arrived beyond the window — a
	// sender's own move takes effect before fs+1 Moves have shifted
	// ours — until the window reaches them.
	early irmc.Hold[[]byte]
	// waiting counts Receive calls currently blocked per position; the
	// nackLoop uses it to spot in-window positions whose original Send
	// multicast this receiver missed (Config.Resend only).
	waiting map[ids.Position]int
}

// slot collects per-position submissions until fs+1 senders agree.
type slot struct {
	votes    map[ids.NodeID]crypto.Digest
	payloads map[crypto.Digest][]byte
	resolved []byte
}

var _ irmc.Receiver = (*Receiver)(nil)

// NewReceiver creates the receiver endpoint and registers its
// transport handler.
func NewReceiver(cfg irmc.Config) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Receiver{
		cfg:  cfg,
		reg:  irmc.NewRegistry(),
		stop: make(chan struct{}),
		subs: make(map[ids.Subchannel]*recvSub),
	}
	r.lanes = irmc.NewOpenLanes(cfg, r.reg, cfg.Senders.Members)
	r.cond = sync.NewCond(&r.mu)
	transport.RegisterBatch(cfg.Node, cfg.Stream, r.onFrames)
	if cfg.Resend {
		go r.nackLoop()
	}
	return r, nil
}

func (r *Receiver) sub(sc ids.Subchannel) *recvSub {
	sub, _ := r.subCreated(sc)
	return sub
}

// subCreated returns the subchannel state and whether this call
// created it.
func (r *Receiver) subCreated(sc ids.Subchannel) (*recvSub, bool) {
	sub, ok := r.subs[sc]
	if !ok {
		sub = &recvSub{
			win:         irmc.NewWindow(r.cfg.Capacity),
			senderMoves: make(map[ids.NodeID]ids.Position),
			slots:       make(map[ids.Position]*slot),
			early:       irmc.NewHold[[]byte](r.cfg.Capacity),
			waiting:     make(map[ids.Position]int),
		}
		r.subs[sc] = sub
	}
	return sub, !ok
}

// Receive implements irmc.Receiver.
func (r *Receiver) Receive(sc ids.Subchannel, p ids.Position) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	waitSub := r.sub(sc)
	waitSub.waiting[p]++
	defer func() {
		if waitSub.waiting[p]--; waitSub.waiting[p] == 0 {
			delete(waitSub.waiting, p)
		}
	}()
	for {
		if r.closed {
			return nil, irmc.ErrClosed
		}
		sub := r.sub(sc)
		if p < sub.win.Start {
			return nil, &irmc.TooOldError{NewStart: sub.win.Start}
		}
		if p <= sub.win.Max() {
			if sl, ok := sub.slots[p]; ok && sl.resolved != nil {
				return sl.resolved, nil
			}
		}
		r.cond.Wait()
	}
}

// MoveWindow implements irmc.Receiver: advance the local window,
// garbage collect, and notify the senders.
func (r *Receiver) MoveWindow(sc ids.Subchannel, p ids.Position) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if !r.moveLocked(sc, p) {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	r.notifySenders(sc, p)
}

// moveLocked advances the window, prunes state and admits held
// submissions the window now covers; reports whether the window moved.
func (r *Receiver) moveLocked(sc ids.Subchannel, p ids.Position) bool {
	sub := r.sub(sc)
	if !sub.win.Advance(p) {
		return false
	}
	for pos := range sub.slots {
		if pos < sub.win.Start {
			delete(sub.slots, pos)
		}
	}
	sub.early.Release(sub.win, func(from ids.NodeID, pos ids.Position, payload []byte) {
		r.admitLocked(sub, from, pos, payload)
	})
	r.cond.Broadcast()
	return true
}

func (r *Receiver) notifySenders(sc ids.Subchannel, p ids.Position) {
	stop := r.cfg.Track()
	frame := r.reg.EncodeFrame(irmc.TagMove, &irmc.MoveMsg{Subchannel: sc, Position: p})
	envs := irmc.SealAll(r.cfg.Suite, irmc.TagMove, frame, r.cfg.Senders.Members)
	stop()
	for _, se := range envs {
		r.cfg.Node.Send(se.To, r.cfg.Stream, se.Env)
	}
}

// Close implements irmc.Receiver.
func (r *Receiver) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// nackLoop (Config.Resend only) watches for Receive calls stuck on an
// in-window, unresolved position. Healthy blocking — the next position
// simply has not been sent yet — clears within one interval; a
// position still stuck across two consecutive ticks means the original
// Send multicast was lost to this receiver (partition, restart), which
// no amount of waiting repairs under RC's fire-and-forget fan-out. The
// loop then asks all senders to re-transmit their retained envelopes
// from the lowest stuck position.
func (r *Receiver) nackLoop() {
	interval := time.Duration(r.cfg.CollectorTimeoutMS) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	lastStuck := make(map[ids.Subchannel]ids.Position)
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		type nack struct {
			sc   ids.Subchannel
			from ids.Position
		}
		var nacks []nack
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		for sc, sub := range r.subs {
			stuck := ids.Position(0)
			for p := range sub.waiting {
				if !sub.win.Contains(p) {
					continue
				}
				if sl, ok := sub.slots[p]; ok && sl.resolved != nil {
					continue
				}
				if stuck == 0 || p < stuck {
					stuck = p
				}
			}
			if stuck == 0 {
				delete(lastStuck, sc)
				continue
			}
			if lastStuck[sc] == stuck {
				nacks = append(nacks, nack{sc: sc, from: stuck})
			}
			lastStuck[sc] = stuck
		}
		r.mu.Unlock()
		for _, n := range nacks {
			stop := r.cfg.Track()
			frame := r.reg.EncodeFrame(irmc.TagResend, &irmc.ResendMsg{Subchannel: n.sc, From: n.from})
			envs := irmc.SealAll(r.cfg.Suite, irmc.TagResend, frame, r.cfg.Senders.Members)
			stop()
			for _, se := range envs {
				r.cfg.Node.Send(se.To, r.cfg.Stream, se.Env)
			}
		}
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
			r.onSenderMove(from, msg.(*irmc.MoveMsg))
		}
	})
}

// wantSend is the admission pre-check (see irmc.OpenLanes) for a Send
// whose signature has not been verified yet. A valid one changes
// nothing below the window, once the position is resolved, or when
// this sender's verified vote is already counted. Positions beyond the
// window have no slot and go on to be verified and held.
func (r *Receiver) wantSend(from ids.NodeID, m *irmc.SendMsg) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	sub, ok := r.subs[m.Subchannel]
	if !ok {
		return true
	}
	if m.Position < sub.win.Start {
		return false
	}
	sl, ok := sub.slots[m.Position]
	if !ok {
		return true
	}
	_, voted := sl.votes[from]
	return sl.resolved == nil && !voted
}

func (r *Receiver) onSend(from ids.NodeID, m *irmc.SendMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	sub, created := r.subCreated(m.Subchannel)
	if created {
		r.notifyNewSub(m.Subchannel)
	}
	switch {
	case m.Position > sub.win.Max():
		sub.early.Put(from, m.Position, m.Payload)
	case m.Position >= sub.win.Start:
		r.admitLocked(sub, from, m.Position, m.Payload)
	}
}

// Held reports how many early submissions of sender peer are held for
// subchannel sc; never more than Config.Capacity.
func (r *Receiver) Held(sc ids.Subchannel, peer ids.NodeID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sub, ok := r.subs[sc]; ok {
		return sub.early.Len(peer)
	}
	return 0
}

// admitLocked counts from's submission for in-window position p and
// resolves the position once fs+1 senders agree.
func (r *Receiver) admitLocked(sub *recvSub, from ids.NodeID, p ids.Position, payload []byte) {
	sl, ok := sub.slots[p]
	if !ok {
		sl = &slot{
			votes:    make(map[ids.NodeID]crypto.Digest),
			payloads: make(map[crypto.Digest][]byte),
		}
		sub.slots[p] = sl
	}
	if sl.resolved != nil {
		return
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
	if matching >= r.cfg.Senders.F+1 {
		sl.resolved = sl.payloads[digest]
		r.cond.Broadcast()
	}
}

// notifyNewSub schedules the new-subchannel callback; it runs on its
// own goroutine so endpoint locks are never held while user code runs.
func (r *Receiver) notifyNewSub(sc ids.Subchannel) {
	if cb := r.cfg.OnNewSubchannel; cb != nil {
		go cb(sc)
	}
}

// onSenderMove applies the fs+1-highest rule to sender-initiated
// window moves (Figure 18, receiver side).
func (r *Receiver) onSenderMove(from ids.NodeID, m *irmc.MoveMsg) {
	r.mu.Lock()
	sub, created := r.subCreated(m.Subchannel)
	if created {
		r.notifyNewSub(m.Subchannel)
	}
	if m.Position > sub.senderMoves[from] {
		sub.senderMoves[from] = m.Position
		sub.early.DropBelow(from, m.Position)
	}
	target := irmc.KHighest(sub.senderMoves, r.cfg.Senders.Members, r.cfg.Senders.F+1)
	moved := false
	if target > sub.win.Start {
		moved = r.moveLocked(m.Subchannel, target)
	}
	start := sub.win.Start
	r.mu.Unlock()
	if moved {
		r.notifySenders(m.Subchannel, target)
		return
	}
	// No move: acknowledge our current window start to the announcing
	// sender anyway. Senders re-announce a move until every receiver's
	// acknowledged start has caught up with it, so a lost or stale ack
	// — the announcement raced a partition or a restart — must be
	// repairable by the re-announcement itself, or the sender would
	// re-announce forever and its own window would never advance.
	r.ackSender(m.Subchannel, start, from)
}

// ackSender reports the receiver's current window start to one sender.
func (r *Receiver) ackSender(sc ids.Subchannel, p ids.Position, to ids.NodeID) {
	stop := r.cfg.Track()
	frame := r.reg.EncodeFrame(irmc.TagMove, &irmc.MoveMsg{Subchannel: sc, Position: p})
	envs := irmc.SealAll(r.cfg.Suite, irmc.TagMove, frame, []ids.NodeID{to})
	stop()
	for _, se := range envs {
		r.cfg.Node.Send(se.To, r.cfg.Stream, se.Env)
	}
}
