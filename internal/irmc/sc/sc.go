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
// Windows, moves, early holds and their repair are irmc.SenderCore and
// irmc.ReceiverCore (the package comment of irmc states the rule).
// What is particular here is that early traffic is held on both sides:
// a sender keeps a peer's validated share for a position past its own
// window — otherwise a collector that moves last could never assemble
// the certificate and delivery would wait for the receivers' watchdog —
// and a receiver keeps a verified certificate until fs+1 Moves bring
// its window there.
package sc

import (
	"errors"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/transport"
	"spider/internal/wire"
)

// errBadCertificate drops certificates lacking fs+1 valid shares.
var errBadCertificate = errors.New("irmc-sc: certificate lacks f+1 valid shares")

// Sender is the IRMC-SC sender endpoint.
type Sender struct {
	irmc.SenderCore[senderState]
	me    ids.NodeID
	peers []ids.NodeID // the sender group without this sender

	// lanes verify inbound traffic on the crypto pipeline, one lane
	// per peer (share signatures from fellow senders are the CPU-heavy
	// case) so admission order per peer is preserved while the RSA
	// work spreads across cores.
	lanes *irmc.OpenLanes
}

type senderSub = irmc.SenderSub[senderState]

type senderState struct {
	data   map[ids.Position][]byte                                  // own submissions
	shares map[ids.Position]map[crypto.Digest]map[ids.NodeID][]byte // validated share sigs
	certs  map[ids.Position]*irmc.CertificateMsg

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
	s := &Sender{}
	err := s.Init(cfg, func(st *senderState) {
		st.data = make(map[ids.Position][]byte)
		st.shares = make(map[ids.Position]map[crypto.Digest]map[ids.NodeID][]byte)
		st.certs = make(map[ids.Position]*irmc.CertificateMsg)
		st.collectors = make(map[ids.NodeID]collectorChoice)
	}, s.windowChangedLocked)
	if err != nil {
		return nil, err
	}
	s.me = cfg.Suite.Node()
	for _, id := range cfg.Senders.Members {
		if id != s.me {
			s.peers = append(s.peers, id)
		}
	}
	s.lanes = irmc.NewOpenLanes(cfg, s.Reg, s.peers, cfg.Receivers.Members)
	s.Start(s.announceProgress)
	transport.RegisterBatch(cfg.Node, cfg.Stream, s.onFrames)
	return s, nil
}

// defaultCollector is the initial collector every party assumes before
// any Select message: the first member of the sender group.
func (s *Sender) defaultCollector() ids.NodeID { return s.Cfg.Senders.Members[0] }

// collectorFor returns the collector currently selected by receiver rr
// on this subchannel.
func (st *senderState) collectorFor(rr ids.NodeID, def ids.NodeID) ids.NodeID {
	if c, ok := st.collectors[rr]; ok {
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
	sub, err := s.WaitWindow(sc, p)
	if err != nil {
		return err
	}
	if _, dup := sub.X.data[p]; dup {
		s.Mu.Unlock()
		return nil // idempotent: already submitted
	}
	sub.X.data[p] = msg
	s.Mu.Unlock()

	stop := s.Cfg.Track()
	digest := crypto.Hash(msg)
	share := &irmc.SigShareMsg{
		Subchannel: sc, Position: p, Digest: digest,
		Sig: s.Cfg.Suite.Sign(crypto.DomainIRMCShare, irmc.SharePayload(sc, p, digest)),
	}
	// A window move that passed p meanwhile pruned data[p]; a share
	// admitted below the start now would never be pruned.
	var ready []readyCert
	s.Mu.Lock()
	if !s.Closed() && p >= sub.Win.Start {
		if c, ok := s.admitShareLocked(sub, s.me, share); ok {
			ready = append(ready, c)
		}
	}
	s.Mu.Unlock()
	stop()
	s.Post(irmc.TagSigShare, share, s.peers...)
	s.sendReady(ready)
	return nil
}

func (s *Sender) onFrames(from ids.NodeID, payloads [][]byte) {
	fromSender := s.Cfg.Senders.Contains(from)
	fromReceiver := s.Cfg.Receivers.Contains(from)
	s.lanes.SubmitBatch(from, payloads, func(tag wire.TypeTag, msg wire.Message) bool {
		return tag != irmc.TagSigShare || !fromSender || s.wantShare(from, msg.(*irmc.SigShareMsg))
	}, func(tag wire.TypeTag, msg wire.Message) error {
		if tag == irmc.TagSigShare && fromSender {
			// Validate the transferable share signature before storing
			// it; only valid shares may end up inside certificates.
			m := msg.(*irmc.SigShareMsg)
			return s.Cfg.Suite.Verify(from, crypto.DomainIRMCShare,
				irmc.SharePayload(m.Subchannel, m.Position, m.Digest), m.Sig)
		}
		return nil
	}, func(tag wire.TypeTag, msg wire.Message) {
		switch {
		case tag == irmc.TagSigShare && fromSender:
			s.onShare(from, msg.(*irmc.SigShareMsg))
		case tag == irmc.TagMove && fromReceiver:
			s.OnReceiverMove(from, msg.(*irmc.MoveMsg))
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
	s.Mu.Lock()
	defer s.Mu.Unlock()
	if s.Closed() {
		return false
	}
	sub, ok := s.Subs[m.Subchannel]
	if !ok {
		return true
	}
	if m.Position < sub.Win.Start || sub.X.certs[m.Position] != nil {
		return false
	}
	byNode := sub.X.shares[m.Position][m.Digest]
	_, dup := byNode[from]
	return !dup && len(byNode) <= s.Cfg.Senders.F
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
	s.Mu.Lock()
	if s.Closed() {
		s.Mu.Unlock()
		return
	}
	sub := s.Sub(m.Subchannel)
	var ready []readyCert
	switch {
	case m.Position > sub.Win.Max():
		sub.Early.Put(from, m.Position, m)
	case m.Position >= sub.Win.Start:
		if c, ok := s.admitShareLocked(sub, from, m); ok {
			ready = append(ready, c)
		}
	}
	s.Mu.Unlock()
	s.sendReady(ready)
}

// admitShareLocked stores from's share for an in-window position and
// assembles the certificate once fs+1 shares match our own payload.
func (s *Sender) admitShareLocked(sub *senderSub, from ids.NodeID, m *irmc.SigShareMsg) (readyCert, bool) {
	st := &sub.X
	byDigest, ok := st.shares[m.Position]
	if !ok {
		byDigest = make(map[crypto.Digest]map[ids.NodeID][]byte)
		st.shares[m.Position] = byDigest
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

	payload, havePayload := st.data[m.Position]
	if !havePayload || st.certs[m.Position] != nil ||
		m.Digest != crypto.Hash(payload) || len(byNode) < s.Cfg.Senders.F+1 {
		return readyCert{}, false
	}
	cert := &irmc.CertificateMsg{
		Subchannel: m.Subchannel,
		Position:   m.Position,
		Payload:    payload,
	}
	for node, sig := range byNode {
		cert.Shares = append(cert.Shares, irmc.ShareSig{Node: node, Sig: sig})
		if len(cert.Shares) == s.Cfg.Senders.F+1 {
			break
		}
	}
	st.certs[m.Position] = cert
	// Forward to the receivers that currently use us as collector.
	targets := make([]ids.NodeID, 0, len(s.Cfg.Receivers.Members))
	for _, rr := range s.Cfg.Receivers.Members {
		if st.collectorFor(rr, s.defaultCollector()) == s.me {
			targets = append(targets, rr)
		}
	}
	return readyCert{cert: cert, targets: targets}, true
}

// sendCert ships a certificate. Certificates are SC's payload-bearing
// wide-area messages; the sig-share exchange stays within the
// co-located sender group and is not charged to SendBytes.
func (s *Sender) sendCert(cert *irmc.CertificateMsg, targets []ids.NodeID) {
	if n := s.Post(irmc.TagCertificate, cert, targets...); s.Cfg.SendBytes != nil {
		s.Cfg.SendBytes.Add(n)
	}
}

// windowChangedLocked is the sender's window hook: prune what the start
// has passed, admit the held shares the window now covers, and ship the
// certificates that completes once the lock is released.
func (s *Sender) windowChangedLocked(sub *senderSub) func() {
	st := &sub.X
	for pos := range st.data {
		if pos < sub.Win.Start {
			delete(st.data, pos)
		}
	}
	for pos := range st.shares {
		if pos < sub.Win.Start {
			delete(st.shares, pos)
		}
	}
	for pos := range st.certs {
		if pos < sub.Win.Start {
			delete(st.certs, pos)
		}
	}
	var ready []readyCert
	sub.Early.Release(sub.Win.Window, func(from ids.NodeID, _ ids.Position, m *irmc.SigShareMsg) {
		if c, ok := s.admitShareLocked(sub, from, m); ok {
			ready = append(ready, c)
		}
	})
	if ready == nil {
		return nil
	}
	return func() { s.sendReady(ready) }
}

func (s *Sender) onSelect(from ids.NodeID, m *irmc.SelectMsg) {
	s.Mu.Lock()
	st := &s.Sub(m.Subchannel).X
	cur := st.collectors[from]
	if m.Epoch <= cur.epoch && !(cur == collectorChoice{}) {
		s.Mu.Unlock()
		return
	}
	if !s.Cfg.Senders.Contains(m.Collector) {
		s.Mu.Unlock()
		return
	}
	st.collectors[from] = collectorChoice{node: m.Collector, epoch: m.Epoch}
	var resend []*irmc.CertificateMsg
	if m.Collector == s.me {
		// We are the new collector: replay every certificate we hold
		// so the receiver can fill its gaps.
		resend = make([]*irmc.CertificateMsg, 0, len(st.certs))
		for _, cert := range st.certs {
			resend = append(resend, cert)
		}
	}
	s.Mu.Unlock()
	for _, cert := range resend {
		s.sendCert(cert, []ids.NodeID{from})
	}
}

// announceProgress runs on the sender's tick and announces, per
// subchannel, the highest position through which this sender holds
// gap-free certificates.
func (s *Sender) announceProgress() {
	msg := &irmc.ProgressMsg{}
	s.Mu.Lock()
	if !s.Closed() {
		for sc, sub := range s.Subs {
			p := sub.Win.Start - 1
			for sub.X.certs[p+1] != nil {
				p++
			}
			if p >= sub.Win.Start {
				msg.Subchannels = append(msg.Subchannels, sc)
				msg.Positions = append(msg.Positions, p)
			}
		}
	}
	s.Mu.Unlock()
	if len(msg.Subchannels) > 0 {
		s.Post(irmc.TagProgress, msg, s.Cfg.Receivers.Members...)
	}
}

// Receiver is the IRMC-SC receiver endpoint.
type Receiver struct {
	irmc.ReceiverCore[recvState]

	// lanes verify inbound certificates (fs+1 share signatures each)
	// on the crypto pipeline, one lane per sender.
	lanes *irmc.OpenLanes
}

type recvSub = irmc.ReceiverSub[recvState]

// recvState is the collector watch of one subchannel.
type recvState struct {
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
	r := &Receiver{}
	// A verified certificate is deliverable as it stands, so a held one
	// the window reaches is delivered; nothing of ours needs pruning.
	err := r.Init(cfg, func(st *recvState) {
		st.progress = make(map[ids.NodeID]ids.Position)
		st.collector = cfg.Senders.Members[0]
	}, nil, func(sub *recvSub, _ ids.NodeID, p ids.Position, payload []byte) {
		r.Deliver(sub, p, payload)
	})
	if err != nil {
		return nil, err
	}
	r.lanes = irmc.NewOpenLanes(cfg, r.Reg, cfg.Senders.Members)
	r.Every(max(cfg.CollectorTimeout()/4, 10*time.Millisecond), r.checkCollectors)
	transport.RegisterBatch(cfg.Node, cfg.Stream, r.onFrames)
	return r, nil
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
			r.OnSenderMove(from, msg.(*irmc.MoveMsg))
		}
	})
}

// wantCertificate is the admission pre-check (see irmc.OpenLanes) for
// a certificate whose shares have not been verified yet: below the
// window or already delivered (a replay after a collector switch, a
// second collector) it changes nothing.
func (r *Receiver) wantCertificate(m *irmc.CertificateMsg) bool {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.Closed() {
		return false
	}
	sub, ok := r.Subs[m.Subchannel]
	if !ok {
		return true
	}
	return m.Position >= sub.Win.Start && !sub.Delivered(m.Position)
}

// verifyCertificate checks, without any lock held, that a certificate
// carries fs+1 valid share signatures from distinct sender-group
// members over its exact payload.
func (r *Receiver) verifyCertificate(m *irmc.CertificateMsg) bool {
	digest := crypto.Hash(m.Payload)
	sharePayload := irmc.SharePayload(m.Subchannel, m.Position, digest)
	voters := make(map[ids.NodeID]bool, len(m.Shares))
	for _, sh := range m.Shares {
		if voters[sh.Node] || !r.Cfg.Senders.Contains(sh.Node) {
			continue
		}
		if err := r.Cfg.Suite.Verify(sh.Node, crypto.DomainIRMCShare, sharePayload, sh.Sig); err != nil {
			continue
		}
		voters[sh.Node] = true
	}
	return len(voters) >= r.Cfg.Senders.F+1
}

// onCertificate installs a certificate already validated on the
// pipeline, or holds it when the window has not reached its position.
func (r *Receiver) onCertificate(from ids.NodeID, m *irmc.CertificateMsg) {
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
		r.Deliver(sub, m.Position, m.Payload)
	}
}

func (r *Receiver) onProgress(from ids.NodeID, m *irmc.ProgressMsg) {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.Closed() {
		return
	}
	now := time.Now()
	for i, sc := range m.Subchannels {
		sub := r.Arrived(sc)
		st := &sub.X
		if m.Positions[i] > st.progress[from] {
			st.progress[from] = m.Positions[i]
		}
		st.merged = irmc.KHighest(st.progress, r.Cfg.Senders.Members, r.Cfg.Senders.F+1)
		if missingBeforeLocked(sub) {
			if st.timerDeadline.IsZero() {
				st.timerDeadline = now.Add(r.Cfg.CollectorTimeout())
			}
		} else {
			st.timerDeadline = time.Time{}
		}
	}
}

// missingBeforeLocked reports whether a certificate is missing between
// the window start and the merged progress claim.
func missingBeforeLocked(sub *recvSub) bool {
	for p := sub.Win.Start; p <= sub.X.merged && p <= sub.Win.Max(); p++ {
		if !sub.Delivered(p) {
			return true
		}
	}
	return false
}

// checkCollectors is the watchdog tick. It switches collectors when
// certificates are overdue: if fs+1 senders claim progress past a
// position this receiver has not obtained, the current collector is
// withholding certificates.
func (r *Receiver) checkCollectors() {
	var switches []irmc.SelectMsg
	r.Mu.Lock()
	now := time.Now()
	for sc, sub := range r.Subs {
		st := &sub.X
		if st.timerDeadline.IsZero() || now.Before(st.timerDeadline) {
			continue
		}
		if !missingBeforeLocked(sub) {
			st.timerDeadline = time.Time{}
			continue
		}
		// Rotate to the next sender after the current collector.
		idx := r.Cfg.Senders.IndexOf(st.collector)
		st.collector = r.Cfg.Senders.Members[(idx+1)%len(r.Cfg.Senders.Members)]
		st.epoch++
		st.timerDeadline = now.Add(r.Cfg.CollectorTimeout())
		switches = append(switches, irmc.SelectMsg{Subchannel: sc, Collector: st.collector, Epoch: st.epoch})
	}
	r.Mu.Unlock()
	for i := range switches {
		r.Post(irmc.TagSelect, &switches[i], r.Cfg.Senders.Members...)
	}
}
