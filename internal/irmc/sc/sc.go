// Package sc implements the IRMC with sender-side collection
// (Figures 19–20 of the paper): senders exchange signed hashes of
// their submissions among themselves; a collector assembles fs+1
// matching share signatures into a certificate and forwards one
// wide-area message per receiver. Periodic progress announcements let
// receivers detect a collector that withholds certificates and switch
// to another sender. Compared with IRMC-RC this trades sender-side
// CPU for a large reduction in wide-area traffic (Figure 9d).
//
// That CPU is kept to what a certificate needs. A sender signs its
// share once (the signature inside SigShareMsg; the envelope carries a
// MAC) and admits its own share locally in Send instead of mailing
// itself a copy. A peer's share is verified only while it can still
// complete something (wantShare): not once the position has its
// certificate, and not once fs+1 verified shares for the digest are
// in, because the own Send completes the certificate from there.
// Receivers skip a certificate for a position already delivered.
//
// Window rule: as in IRMC-RC, a sender's window starts at the higher
// of its own MoveWindow and the (fr+1)-highest start the receivers
// announced (irmc.SenderWindow), and a receiver's window moves on fs+1
// senders' Moves or its own MoveWindow. Senders therefore run ahead of
// one another and of the receivers, and both sides hold what arrives
// early instead of dropping it (irmc.Hold, at most Capacity entries
// per subchannel and peer): a sender keeps a peer's validated share
// for a position past its own window until the window covers it —
// otherwise a collector that moves last could never assemble the
// certificate and delivery would wait for the receivers' watchdog —
// and a receiver keeps a verified certificate past its window until
// fs+1 Moves bring the window there. Held shares and certificates go
// through the unchanged admission paths; Receive never returns a
// position outside the window.
package sc

import (
	"errors"
	"sync"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/transport"
	"spider/internal/wire"
)

const (
	defaultProgressInterval = 100 * time.Millisecond
	defaultCollectorTimeout = 500 * time.Millisecond
)

// errBadCertificate drops certificates lacking fs+1 valid shares.
var errBadCertificate = errors.New("irmc-sc: certificate lacks f+1 valid shares")

// Sender is the IRMC-SC sender endpoint.
type Sender struct {
	cfg   irmc.Config
	reg   *wire.Registry
	me    ids.NodeID
	peers []ids.NodeID // the sender group without this sender

	// lanes verify inbound traffic on the crypto pipeline, one lane
	// per peer (share signatures from fellow senders are the CPU-heavy
	// case) so admission order per peer is preserved while the RSA
	// work spreads across cores.
	lanes *irmc.OpenLanes

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	subs   map[ids.Subchannel]*senderSub
	// collector selection per receiver (global across subchannels is
	// not enough: the paper selects per subchannel).
	done chan struct{}
	wg   sync.WaitGroup
}

type senderSub struct {
	win irmc.SenderWindow

	data   map[ids.Position][]byte                                  // own submissions
	shares map[ids.Position]map[crypto.Digest]map[ids.NodeID][]byte // validated share sigs
	certs  map[ids.Position]*irmc.CertificateMsg
	// early holds validated shares of peers whose window is ahead of
	// ours (their own move, or the receivers' announcements, reached
	// them first) until our window covers the position. Dropping them
	// instead would leave this sender, if it is the collector, unable
	// to assemble the certificate until the receivers' watchdog fires.
	early irmc.Hold[*irmc.SigShareMsg]

	collectors map[ids.NodeID]collectorChoice // per receiver
}

type collectorChoice struct {
	node  ids.NodeID
	epoch uint64
}

var _ irmc.Sender = (*Sender)(nil)

// NewSender creates the sender endpoint, registers its transport
// handler, and starts the progress announcer.
func NewSender(cfg irmc.Config) (*Sender, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sender{
		cfg:  cfg,
		reg:  irmc.NewRegistry(),
		me:   cfg.Suite.Node(),
		subs: make(map[ids.Subchannel]*senderSub),
		done: make(chan struct{}),
	}
	for _, id := range cfg.Senders.Members {
		if id != s.me {
			s.peers = append(s.peers, id)
		}
	}
	s.lanes = irmc.NewOpenLanes(cfg, s.reg, s.peers, cfg.Receivers.Members)
	s.cond = sync.NewCond(&s.mu)
	transport.RegisterBatch(cfg.Node, cfg.Stream, s.onFrames)
	s.wg.Add(1)
	go s.progressLoop()
	return s, nil
}

func (s *Sender) progressInterval() time.Duration {
	if s.cfg.ProgressIntervalMS > 0 {
		return time.Duration(s.cfg.ProgressIntervalMS) * time.Millisecond
	}
	return defaultProgressInterval
}

func (s *Sender) sub(sc ids.Subchannel) *senderSub {
	sub, ok := s.subs[sc]
	if !ok {
		sub = &senderSub{
			win:        irmc.NewSenderWindow(s.cfg.Capacity),
			data:       make(map[ids.Position][]byte),
			shares:     make(map[ids.Position]map[crypto.Digest]map[ids.NodeID][]byte),
			certs:      make(map[ids.Position]*irmc.CertificateMsg),
			early:      irmc.NewHold[*irmc.SigShareMsg](s.cfg.Capacity),
			collectors: make(map[ids.NodeID]collectorChoice),
		}
		s.subs[sc] = sub
	}
	return sub
}

// defaultCollector is the initial collector every party assumes before
// any Select message: the first member of the sender group.
func (s *Sender) defaultCollector() ids.NodeID { return s.cfg.Senders.Members[0] }

// collectorFor returns the collector currently selected by receiver rr
// on this subchannel.
func (sub *senderSub) collectorFor(rr ids.NodeID, def ids.NodeID) ids.NodeID {
	if c, ok := sub.collectors[rr]; ok {
		return c.node
	}
	return def
}

// Send implements irmc.Sender: store the payload locally, sign a share
// for its hash, admit that share here and announce it to the other
// senders. The position is reserved under the endpoint lock and the
// signature made outside it, so inbound traffic of every subchannel
// never waits behind a public-key operation.
func (s *Sender) Send(sc ids.Subchannel, p ids.Position, msg []byte) error {
	s.mu.Lock()
	sub := s.sub(sc)
	for !s.closed && p > sub.win.Max() {
		s.cond.Wait()
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
	if _, dup := sub.data[p]; dup {
		s.mu.Unlock()
		return nil // idempotent: already submitted
	}
	sub.data[p] = msg
	s.mu.Unlock()

	stop := s.cfg.Track()
	digest := crypto.Hash(msg)
	share := &irmc.SigShareMsg{
		Subchannel: sc, Position: p, Digest: digest,
		Sig: s.cfg.Suite.Sign(crypto.DomainIRMCShare, irmc.SharePayload(sc, p, digest)),
	}
	envs := irmc.SealAll(s.cfg.Suite, irmc.TagSigShare, s.reg.EncodeFrame(irmc.TagSigShare, share), s.peers)

	// A window move that passed p meanwhile pruned data[p]; a share
	// admitted below the start now would never be pruned.
	var ready []readyCert
	s.mu.Lock()
	if !s.closed && p >= sub.win.Start {
		if c, ok := s.admitShareLocked(sub, s.me, share); ok {
			ready = append(ready, c)
		}
	}
	s.mu.Unlock()
	stop()
	for _, se := range envs {
		s.cfg.Node.Send(se.To, s.cfg.Stream, se.Env)
	}
	s.sendReady(ready)
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
	var ready []readyCert
	if advanced {
		ready = s.advancedLocked(sub)
	}
	s.mu.Unlock()
	s.sendReady(ready)
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
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Sender) onFrames(from ids.NodeID, payloads [][]byte) {
	fromSender := s.cfg.Senders.Contains(from)
	fromReceiver := s.cfg.Receivers.Contains(from)
	s.lanes.SubmitBatch(from, payloads, func(tag wire.TypeTag, msg wire.Message) bool {
		return tag != irmc.TagSigShare || !fromSender || s.wantShare(from, msg.(*irmc.SigShareMsg))
	}, func(tag wire.TypeTag, msg wire.Message) error {
		if tag == irmc.TagSigShare && fromSender {
			// Validate the transferable share signature before storing
			// it; only valid shares may end up inside certificates.
			m := msg.(*irmc.SigShareMsg)
			return s.cfg.Suite.Verify(from, crypto.DomainIRMCShare,
				irmc.SharePayload(m.Subchannel, m.Position, m.Digest), m.Sig)
		}
		return nil
	}, func(tag wire.TypeTag, msg wire.Message) {
		switch {
		case tag == irmc.TagSigShare && fromSender:
			s.onShare(from, msg.(*irmc.SigShareMsg))
		case tag == irmc.TagMove && fromReceiver:
			s.onReceiverMove(from, msg.(*irmc.MoveMsg))
		case tag == irmc.TagSelect && fromReceiver:
			s.onSelect(from, msg.(*irmc.SelectMsg))
		}
	})
}

// wantShare is the admission pre-check (see irmc.OpenLanes) for a
// peer's share whose signature has not been verified yet. A valid one
// changes nothing below the window, once the position has its
// certificate, a second time from the same peer, or once fs+1 verified
// shares for its digest are held: with the own share among them the
// certificate exists, without it the own Send completes it. Positions
// beyond the window go on to be verified and held.
func (s *Sender) wantShare(from ids.NodeID, m *irmc.SigShareMsg) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	sub, ok := s.subs[m.Subchannel]
	if !ok {
		return true
	}
	if m.Position < sub.win.Start || sub.certs[m.Position] != nil {
		return false
	}
	byNode := sub.shares[m.Position][m.Digest]
	_, dup := byNode[from]
	return !dup && len(byNode) <= s.cfg.Senders.F
}

// readyCert is a freshly assembled certificate and the receivers that
// currently use this sender as their collector.
type readyCert struct {
	cert    *irmc.CertificateMsg
	targets []ids.NodeID
}

func (s *Sender) sendReady(ready []readyCert) {
	for _, c := range ready {
		s.sendCert(c.cert, c.targets)
	}
}

// onShare admits a share signature already validated on the pipeline,
// or holds it when the local window has not reached its position.
func (s *Sender) onShare(from ids.NodeID, m *irmc.SigShareMsg) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	sub := s.sub(m.Subchannel)
	var ready []readyCert
	switch {
	case m.Position > sub.win.Max():
		sub.early.Put(from, m.Position, m)
	case m.Position >= sub.win.Start:
		if c, ok := s.admitShareLocked(sub, from, m); ok {
			ready = append(ready, c)
		}
	}
	s.mu.Unlock()
	s.sendReady(ready)
}

// Held reports how many early shares of sender peer are held for
// subchannel sc; never more than Config.Capacity.
func (s *Sender) Held(sc ids.Subchannel, peer ids.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.subs[sc]; ok {
		return sub.early.Len(peer)
	}
	return 0
}

// admitShareLocked stores from's share for an in-window position and
// assembles the certificate once fs+1 shares match our own payload.
func (s *Sender) admitShareLocked(sub *senderSub, from ids.NodeID, m *irmc.SigShareMsg) (readyCert, bool) {
	byDigest, ok := sub.shares[m.Position]
	if !ok {
		byDigest = make(map[crypto.Digest]map[ids.NodeID][]byte)
		sub.shares[m.Position] = byDigest
	}
	byNode, ok := byDigest[m.Digest]
	if !ok {
		byNode = make(map[ids.NodeID][]byte)
		byDigest[m.Digest] = byNode
	}
	if _, dup := byNode[from]; dup {
		return readyCert{}, false
	}
	byNode[from] = m.Sig

	payload, havePayload := sub.data[m.Position]
	if !havePayload || sub.certs[m.Position] != nil ||
		m.Digest != crypto.Hash(payload) || len(byNode) < s.cfg.Senders.F+1 {
		return readyCert{}, false
	}
	cert := &irmc.CertificateMsg{
		Subchannel: m.Subchannel,
		Position:   m.Position,
		Payload:    payload,
	}
	for node, sig := range byNode {
		cert.Shares = append(cert.Shares, irmc.ShareSig{Node: node, Sig: sig})
		if len(cert.Shares) == s.cfg.Senders.F+1 {
			break
		}
	}
	sub.certs[m.Position] = cert
	// Forward to the receivers that currently use us as collector.
	targets := make([]ids.NodeID, 0, len(s.cfg.Receivers.Members))
	for _, rr := range s.cfg.Receivers.Members {
		if sub.collectorFor(rr, s.defaultCollector()) == s.me {
			targets = append(targets, rr)
		}
	}
	return readyCert{cert: cert, targets: targets}, true
}

func (s *Sender) sendCert(cert *irmc.CertificateMsg, targets []ids.NodeID) {
	if len(targets) == 0 {
		return
	}
	stop := s.cfg.Track()
	frame := s.reg.EncodeFrame(irmc.TagCertificate, cert)
	envs := irmc.SealAll(s.cfg.Suite, irmc.TagCertificate, frame, targets)
	stop()
	for _, se := range envs {
		if s.cfg.SendBytes != nil {
			// Certificates are SC's payload-bearing wide-area messages;
			// the sig-share exchange stays within the co-located sender
			// group and is not charged here.
			s.cfg.SendBytes.Add(int64(len(se.Env)))
		}
		s.cfg.Node.Send(se.To, s.cfg.Stream, se.Env)
	}
}

func (s *Sender) onReceiverMove(from ids.NodeID, m *irmc.MoveMsg) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	sub := s.sub(m.Subchannel)
	var ready []readyCert
	if _, advanced := sub.win.Announce(from, m.Position, s.cfg.Receivers); advanced {
		ready = s.advancedLocked(sub)
	}
	s.mu.Unlock()
	s.sendReady(ready)
}

// advancedLocked prunes what the moved window start no longer covers,
// admits held shares the window now covers, and wakes blocked Sends.
func (s *Sender) advancedLocked(sub *senderSub) []readyCert {
	for pos := range sub.data {
		if pos < sub.win.Start {
			delete(sub.data, pos)
		}
	}
	for pos := range sub.shares {
		if pos < sub.win.Start {
			delete(sub.shares, pos)
		}
	}
	for pos := range sub.certs {
		if pos < sub.win.Start {
			delete(sub.certs, pos)
		}
	}
	var ready []readyCert
	sub.early.Release(sub.win.Window, func(from ids.NodeID, _ ids.Position, m *irmc.SigShareMsg) {
		if c, ok := s.admitShareLocked(sub, from, m); ok {
			ready = append(ready, c)
		}
	})
	s.cond.Broadcast()
	return ready
}

func (s *Sender) onSelect(from ids.NodeID, m *irmc.SelectMsg) {
	s.mu.Lock()
	sub := s.sub(m.Subchannel)
	cur := sub.collectors[from]
	if m.Epoch <= cur.epoch && !(cur == collectorChoice{}) {
		s.mu.Unlock()
		return
	}
	if !s.cfg.Senders.Contains(m.Collector) {
		s.mu.Unlock()
		return
	}
	sub.collectors[from] = collectorChoice{node: m.Collector, epoch: m.Epoch}
	var resend []*irmc.CertificateMsg
	if m.Collector == s.me {
		// We are the new collector: replay every certificate we hold
		// so the receiver can fill its gaps.
		resend = make([]*irmc.CertificateMsg, 0, len(sub.certs))
		for _, cert := range sub.certs {
			resend = append(resend, cert)
		}
	}
	s.mu.Unlock()
	for _, cert := range resend {
		s.sendCert(cert, []ids.NodeID{from})
	}
}

// progressLoop periodically announces, per subchannel, the highest
// position through which this sender holds gap-free certificates.
func (s *Sender) progressLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.progressInterval())
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.announceProgress()
		}
	}
}

func (s *Sender) announceProgress() {
	stop := s.cfg.Track()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		stop()
		return
	}
	msg := &irmc.ProgressMsg{}
	for sc, sub := range s.subs {
		p := sub.win.Start - 1
		for sub.certs[p+1] != nil {
			p++
		}
		if p >= sub.win.Start {
			msg.Subchannels = append(msg.Subchannels, sc)
			msg.Positions = append(msg.Positions, p)
		}
	}
	s.mu.Unlock()
	if len(msg.Subchannels) == 0 {
		stop()
		return
	}
	frame := s.reg.EncodeFrame(irmc.TagProgress, msg)
	envs := irmc.SealAll(s.cfg.Suite, irmc.TagProgress, frame, s.cfg.Receivers.Members)
	stop()
	for _, se := range envs {
		s.cfg.Node.Send(se.To, s.cfg.Stream, se.Env)
	}
}

// Receiver is the IRMC-SC receiver endpoint.
type Receiver struct {
	cfg irmc.Config
	reg *wire.Registry
	me  ids.NodeID

	// lanes verify inbound certificates (fs+1 share signatures each)
	// on the crypto pipeline, one lane per sender.
	lanes *irmc.OpenLanes

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	subs   map[ids.Subchannel]*recvSub
	done   chan struct{}
	wg     sync.WaitGroup
}

type recvSub struct {
	win         irmc.Window
	senderMoves map[ids.NodeID]ids.Position
	delivered   map[ids.Position][]byte
	// early holds verified certificates for positions beyond the
	// window — a collector can assemble and ship one before fs+1 Moves
	// have reached us — until the window covers them.
	early irmc.Hold[[]byte]

	progress map[ids.NodeID]ids.Position // per-sender progress claims
	merged   ids.Position                // fs+1-highest claimed progress

	collector     ids.NodeID
	epoch         uint64
	timerDeadline time.Time // zero when no certificate is overdue
}

var _ irmc.Receiver = (*Receiver)(nil)

// NewReceiver creates the receiver endpoint, registers its transport
// handler, and starts the collector watchdog.
func NewReceiver(cfg irmc.Config) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Receiver{
		cfg:  cfg,
		reg:  irmc.NewRegistry(),
		me:   cfg.Suite.Node(),
		subs: make(map[ids.Subchannel]*recvSub),
		done: make(chan struct{}),
	}
	r.lanes = irmc.NewOpenLanes(cfg, r.reg, cfg.Senders.Members)
	r.cond = sync.NewCond(&r.mu)
	transport.RegisterBatch(cfg.Node, cfg.Stream, r.onFrames)
	r.wg.Add(1)
	go r.watchdogLoop()
	return r, nil
}

func (r *Receiver) collectorTimeout() time.Duration {
	if r.cfg.CollectorTimeoutMS > 0 {
		return time.Duration(r.cfg.CollectorTimeoutMS) * time.Millisecond
	}
	return defaultCollectorTimeout
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
			delivered:   make(map[ids.Position][]byte),
			early:       irmc.NewHold[[]byte](r.cfg.Capacity),
			progress:    make(map[ids.NodeID]ids.Position),
			collector:   r.cfg.Senders.Members[0],
		}
		r.subs[sc] = sub
	}
	return sub, !ok
}

// notifyNewSub schedules the new-subchannel callback; it runs on its
// own goroutine so endpoint locks are never held while user code runs.
func (r *Receiver) notifyNewSub(sc ids.Subchannel) {
	if cb := r.cfg.OnNewSubchannel; cb != nil {
		go cb(sc)
	}
}

// Receive implements irmc.Receiver.
func (r *Receiver) Receive(sc ids.Subchannel, p ids.Position) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.closed {
			return nil, irmc.ErrClosed
		}
		sub := r.sub(sc)
		if p < sub.win.Start {
			return nil, &irmc.TooOldError{NewStart: sub.win.Start}
		}
		if p <= sub.win.Max() {
			if msg, ok := sub.delivered[p]; ok {
				return msg, nil
			}
		}
		r.cond.Wait()
	}
}

// MoveWindow implements irmc.Receiver.
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

func (r *Receiver) moveLocked(sc ids.Subchannel, p ids.Position) bool {
	sub := r.sub(sc)
	if !sub.win.Advance(p) {
		return false
	}
	for pos := range sub.delivered {
		if pos < sub.win.Start {
			delete(sub.delivered, pos)
		}
	}
	sub.early.Release(sub.win, func(_ ids.NodeID, pos ids.Position, payload []byte) {
		deliverLocked(sub, pos, payload)
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
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.done)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

func (r *Receiver) onFrames(from ids.NodeID, payloads [][]byte) {
	r.lanes.SubmitBatch(from, payloads, func(tag wire.TypeTag, msg wire.Message) bool {
		return tag != irmc.TagCertificate || r.wantCertificate(msg.(*irmc.CertificateMsg))
	}, func(tag wire.TypeTag, msg wire.Message) error {
		if tag == irmc.TagCertificate {
			// The certificate's fs+1 share signatures are the CPU-heavy
			// part of admission; verify them on the pipeline too, so
			// only validated certificates reach the endpoint lock.
			if !r.verifyCertificate(msg.(*irmc.CertificateMsg)) {
				return errBadCertificate
			}
		}
		return nil
	}, func(tag wire.TypeTag, msg wire.Message) {
		switch tag {
		case irmc.TagCertificate:
			r.onCertificate(from, msg.(*irmc.CertificateMsg))
		case irmc.TagProgress:
			r.onProgress(from, msg.(*irmc.ProgressMsg))
		case irmc.TagMove:
			r.onSenderMove(from, msg.(*irmc.MoveMsg))
		}
	})
}

// wantCertificate is the admission pre-check (see irmc.OpenLanes) for
// a certificate whose shares have not been verified yet: below the
// window or already delivered (a replay after a collector switch, a
// second collector) it changes nothing.
func (r *Receiver) wantCertificate(m *irmc.CertificateMsg) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	sub, ok := r.subs[m.Subchannel]
	if !ok {
		return true
	}
	_, delivered := sub.delivered[m.Position]
	return m.Position >= sub.win.Start && !delivered
}

// verifyCertificate checks, without any lock held, that a certificate
// carries fs+1 valid share signatures from distinct sender-group
// members over its exact payload.
func (r *Receiver) verifyCertificate(m *irmc.CertificateMsg) bool {
	digest := crypto.Hash(m.Payload)
	sharePayload := irmc.SharePayload(m.Subchannel, m.Position, digest)
	voters := make(map[ids.NodeID]bool, len(m.Shares))
	for _, sh := range m.Shares {
		if voters[sh.Node] || !r.cfg.Senders.Contains(sh.Node) {
			continue
		}
		if err := r.cfg.Suite.Verify(sh.Node, crypto.DomainIRMCShare, sharePayload, sh.Sig); err != nil {
			continue
		}
		voters[sh.Node] = true
	}
	return len(voters) >= r.cfg.Senders.F+1
}

// onCertificate installs a certificate already validated on the
// pipeline, or holds it when the window has not reached its position.
func (r *Receiver) onCertificate(from ids.NodeID, m *irmc.CertificateMsg) {
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
		deliverLocked(sub, m.Position, m.Payload)
		r.cond.Broadcast()
	}
}

// Held reports how many early certificates from collector peer are
// held for subchannel sc; never more than Config.Capacity.
func (r *Receiver) Held(sc ids.Subchannel, peer ids.NodeID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sub, ok := r.subs[sc]; ok {
		return sub.early.Len(peer)
	}
	return 0
}

// deliverLocked records the certified payload of in-window position p.
func deliverLocked(sub *recvSub, p ids.Position, payload []byte) {
	if _, dup := sub.delivered[p]; !dup {
		sub.delivered[p] = payload
	}
}

func (r *Receiver) onProgress(from ids.NodeID, m *irmc.ProgressMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	now := time.Now()
	for i, sc := range m.Subchannels {
		sub, created := r.subCreated(sc)
		if created {
			r.notifyNewSub(sc)
		}
		if m.Positions[i] > sub.progress[from] {
			sub.progress[from] = m.Positions[i]
		}
		sub.merged = irmc.KHighest(sub.progress, r.cfg.Senders.Members, r.cfg.Senders.F+1)
		if r.missingBeforeLocked(sub) {
			if sub.timerDeadline.IsZero() {
				sub.timerDeadline = now.Add(r.collectorTimeout())
			}
		} else {
			sub.timerDeadline = time.Time{}
		}
	}
}

// missingBeforeLocked reports whether a certificate is missing between
// the window start and the merged progress claim.
func (r *Receiver) missingBeforeLocked(sub *recvSub) bool {
	for p := sub.win.Start; p <= sub.merged && p <= sub.win.Max(); p++ {
		if _, ok := sub.delivered[p]; !ok {
			return true
		}
	}
	return false
}

func (r *Receiver) onSenderMove(from ids.NodeID, m *irmc.MoveMsg) {
	r.mu.Lock()
	sub, created := r.subCreated(m.Subchannel)
	if created {
		r.notifyNewSub(m.Subchannel)
	}
	if m.Position <= sub.senderMoves[from] {
		r.mu.Unlock()
		return
	}
	sub.senderMoves[from] = m.Position
	target := irmc.KHighest(sub.senderMoves, r.cfg.Senders.Members, r.cfg.Senders.F+1)
	moved := false
	if target > sub.win.Start {
		moved = r.moveLocked(m.Subchannel, target)
	}
	r.mu.Unlock()
	if moved {
		r.notifySenders(m.Subchannel, target)
	}
}

// watchdogLoop switches collectors when certificates are overdue: if
// fs+1 senders claim progress past a position this receiver has not
// obtained, the current collector is withholding certificates.
func (r *Receiver) watchdogLoop() {
	defer r.wg.Done()
	interval := r.collectorTimeout() / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			r.checkCollectors()
		}
	}
}

func (r *Receiver) checkCollectors() {
	type switchReq struct {
		sc  ids.Subchannel
		msg *irmc.SelectMsg
	}
	var switches []switchReq

	r.mu.Lock()
	now := time.Now()
	for sc, sub := range r.subs {
		if sub.timerDeadline.IsZero() || now.Before(sub.timerDeadline) {
			continue
		}
		if !r.missingBeforeLocked(sub) {
			sub.timerDeadline = time.Time{}
			continue
		}
		// Rotate to the next sender after the current collector.
		idx := r.cfg.Senders.IndexOf(sub.collector)
		next := r.cfg.Senders.Members[(idx+1)%len(r.cfg.Senders.Members)]
		sub.collector = next
		sub.epoch++
		sub.timerDeadline = now.Add(r.collectorTimeout())
		switches = append(switches, switchReq{
			sc:  sc,
			msg: &irmc.SelectMsg{Subchannel: sc, Collector: next, Epoch: sub.epoch},
		})
	}
	r.mu.Unlock()

	for _, sw := range switches {
		stop := r.cfg.Track()
		frame := r.reg.EncodeFrame(irmc.TagSelect, sw.msg)
		envs := irmc.SealAll(r.cfg.Suite, irmc.TagSelect, frame, r.cfg.Senders.Members)
		stop()
		for _, se := range envs {
			r.cfg.Node.Send(se.To, r.cfg.Stream, se.Env)
		}
	}
}
