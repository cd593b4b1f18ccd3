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
// certificate, not once the peer has a share there (one share per
// sender per position, whatever its digest), and not once fs+1 verified
// shares for the digest are in, because the own Send completes the
// certificate from there.
// Receivers skip a certificate for a position already delivered.
//
// Windows, moves, early holds and their repair are irmc.SenderCore and
// irmc.ReceiverCore (the package comment of irmc states the rule), and
// the lock, the clock, the timers and the network are irmc's driver:
// everything here but Send's signature runs under the endpoint lock and
// queues what it sends.
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
	"spider/internal/quorum"
	"spider/internal/wire"
)

// errBadCertificate drops certificates lacking fs+1 valid shares.
var errBadCertificate = errors.New("irmc-sc: certificate lacks f+1 valid shares")

// Sender is the IRMC-SC sender endpoint.
type Sender struct {
	irmc.SenderCore[senderState]
	me    ids.NodeID
	peers []ids.NodeID // the sender group without this sender
}

type senderSub = irmc.SenderSub[senderState]

type senderState struct {
	data map[ids.Position][]byte // own submissions
	// shares holds the validated share signatures, this sender's own
	// included: one per sender per position, grouped by digest.
	shares *quorum.Collector[ids.Position, crypto.Digest, []byte]
	certs  map[ids.Position]*irmc.CertificateMsg

	collectors map[ids.NodeID]collectorChoice // per receiver
}

type collectorChoice struct {
	node  ids.NodeID
	epoch uint64
}

var _ irmc.Sender = (*Sender)(nil)

// NewSender creates the sender endpoint.
func NewSender(cfg irmc.Config) (*Sender, error) {
	s := &Sender{}
	err := s.Init(cfg, func(st *senderState) {
		st.data = make(map[ids.Position][]byte)
		st.shares = quorum.New[ids.Position, crypto.Digest, []byte](quorum.Count(cfg.Senders.F+1), len(cfg.Senders.Members))
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
	s.Start(s.onFrames, cfg.ProgressInterval(), s.tick)
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
	dup := false
	err := s.WaitWindow(sc, p, func(sub *senderSub) {
		if _, dup = sub.X.data[p]; !dup {
			sub.X.data[p] = msg
		}
	})
	if err != nil || dup {
		return err // a repeat is idempotent: already submitted
	}

	stop := s.Cfg.Track()
	digest := crypto.Hash(msg)
	share := &irmc.SigShareMsg{
		Subchannel: sc, Position: p, Digest: digest,
		Sig: s.Cfg.Suite.Sign(crypto.DomainIRMCShare, irmc.SharePayload(sc, p, digest)),
	}
	s.Locked(func() {
		s.Queue(irmc.TagSigShare, share, s.peers...)
		// A window move that passed p meanwhile pruned data[p]; a share
		// admitted below the start now would never be pruned.
		if sub := s.Sub(sc); p >= sub.Win.Start {
			s.admitShareLocked(sub, s.me, share)
		}
		stop() // what was queued is metered as it is sent
	})
	return nil
}

func (s *Sender) onFrames(from ids.NodeID, payloads [][]byte) {
	fromSender := from != s.me && s.Cfg.Senders.Contains(from)
	fromReceiver := s.Cfg.Receivers.Contains(from)
	s.Admit(from, fromSender || fromReceiver, payloads, func(tag wire.TypeTag, msg wire.Message) bool {
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
	}, func(_ time.Time, tag wire.TypeTag, msg wire.Message) {
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

// wantShare is the admission pre-check (see Admit) for a
// peer's share whose signature has not been verified yet. A valid one
// changes nothing below the window, once the position has its
// certificate, once the peer has a share at the position (whatever its
// digest), or once fs+1 verified shares for its digest are held: with
// the own share among them the certificate exists, without it the own
// Send completes it. Positions beyond the window go on to be verified
// and held.
func (s *Sender) wantShare(from ids.NodeID, m *irmc.SigShareMsg) bool {
	sub, ok := s.Subs[m.Subchannel]
	if !ok {
		return true
	}
	return m.Position >= sub.Win.Start && sub.X.certs[m.Position] == nil &&
		sub.X.shares.Voted(m.Position, from) == nil && !sub.X.shares.Reached(m.Position, m.Digest)
}

// onShare admits a share signature already validated, or holds it when
// the local window has not reached its position.
func (s *Sender) onShare(from ids.NodeID, m *irmc.SigShareMsg) {
	sub := s.Sub(m.Subchannel)
	switch {
	case m.Position > sub.Win.Max():
		sub.Early.Put(from, m.Position, m)
	case m.Position >= sub.Win.Start:
		s.admitShareLocked(sub, from, m)
	}
}

// admitShareLocked stores from's share for an in-window position and
// assembles the certificate, of exactly fs+1 shares, once that many
// match our own payload. Certificates are SC's payload-bearing
// wide-area messages, counted in SendBytes; the sig-share exchange
// stays within the co-located sender group.
func (s *Sender) admitShareLocked(sub *senderSub, from ids.NodeID, m *irmc.SigShareMsg) {
	st := &sub.X
	if !st.shares.Add(m.Position, from, m.Digest, m.Sig) {
		return
	}
	payload, havePayload := st.data[m.Position]
	if !havePayload || st.certs[m.Position] != nil ||
		m.Digest != crypto.Hash(payload) || !st.shares.Reached(m.Position, m.Digest) {
		return
	}
	cert := &irmc.CertificateMsg{
		Subchannel: m.Subchannel,
		Position:   m.Position,
		Payload:    payload,
	}
	for node, sig := range st.shares.Matching(m.Position, m.Digest) {
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
	s.Queue(irmc.TagCertificate, cert, targets...)
}

// windowChangedLocked is the sender's window hook: prune what the start
// has passed and admit the held shares the window now covers.
func (s *Sender) windowChangedLocked(sub *senderSub) {
	st := &sub.X
	for pos := range st.data {
		if pos < sub.Win.Start {
			delete(st.data, pos)
		}
	}
	st.shares.DropBelow(sub.Win.Start)
	for pos := range st.certs {
		if pos < sub.Win.Start {
			delete(st.certs, pos)
		}
	}
	sub.Early.Release(sub.Win.Window, func(from ids.NodeID, _ ids.Position, m *irmc.SigShareMsg) {
		s.admitShareLocked(sub, from, m)
	})
}

func (s *Sender) onSelect(from ids.NodeID, m *irmc.SelectMsg) {
	st := &s.Sub(m.Subchannel).X
	cur := st.collectors[from]
	if (m.Epoch <= cur.epoch && cur != collectorChoice{}) || !s.Cfg.Senders.Contains(m.Collector) {
		return
	}
	st.collectors[from] = collectorChoice{node: m.Collector, epoch: m.Epoch}
	if m.Collector == s.me {
		// We are the new collector: replay every certificate we hold
		// so the receiver can fill its gaps.
		to := []ids.NodeID{from}
		for _, cert := range st.certs {
			s.Queue(irmc.TagCertificate, cert, to...)
		}
	}
}

// tick re-announces unacknowledged moves and announces, per subchannel,
// the highest position through which this sender holds gap-free
// certificates.
func (s *Sender) tick(time.Time) {
	s.ReannounceMoves()
	msg := &irmc.ProgressMsg{}
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
	if len(msg.Subchannels) > 0 {
		s.Queue(irmc.TagProgress, msg, s.Cfg.Receivers.Members...)
	}
}

// Receiver is the IRMC-SC receiver endpoint.
type Receiver struct {
	irmc.ReceiverCore[recvState]

	// certs checks an inbound certificate's fs+1 share signatures.
	certs quorum.Cert
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

// NewReceiver creates the receiver endpoint; its tick is the collector
// watchdog.
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
	r.certs = quorum.Cert{Rule: quorum.Count(cfg.Senders.F + 1), Members: cfg.Senders}
	r.Start(r.onFrames, max(cfg.CollectorTimeout()/4, 10*time.Millisecond), r.checkCollectors)
	return r, nil
}

func (r *Receiver) onFrames(from ids.NodeID, payloads [][]byte) {
	r.Admit(from, r.Cfg.Senders.Contains(from), payloads, func(tag wire.TypeTag, msg wire.Message) bool {
		return tag != irmc.TagCertificate || r.wantCertificate(msg.(*irmc.CertificateMsg))
	}, func(tag wire.TypeTag, msg wire.Message) error {
		if tag == irmc.TagCertificate {
			// The certificate's fs+1 share signatures are checked before
			// the endpoint lock is taken: only validated certificates
			// reach it.
			if !r.verifyCertificate(msg.(*irmc.CertificateMsg)) {
				return errBadCertificate
			}
		}
		return nil
	}, func(now time.Time, tag wire.TypeTag, msg wire.Message) {
		switch tag {
		case irmc.TagCertificate:
			r.onCertificate(from, msg.(*irmc.CertificateMsg))
		case irmc.TagProgress:
			r.onProgress(now, from, msg.(*irmc.ProgressMsg))
		case irmc.TagMove:
			r.OnSenderMove(from, msg.(*irmc.MoveMsg))
		}
	})
}

// wantCertificate is the admission pre-check (see Admit) for
// a certificate whose shares have not been verified yet: below the
// window or already delivered (a replay after a collector switch, a
// second collector) it changes nothing.
func (r *Receiver) wantCertificate(m *irmc.CertificateMsg) bool {
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
	sharePayload := irmc.SharePayload(m.Subchannel, m.Position, crypto.Hash(m.Payload))
	return r.certs.Verify(len(m.Shares), func(i int) ids.NodeID { return m.Shares[i].Node }, func(i int) error {
		return r.Cfg.Suite.Verify(m.Shares[i].Node, crypto.DomainIRMCShare, sharePayload, m.Shares[i].Sig)
	})
}

// onCertificate installs a certificate already validated, or holds it
// when the window has not reached its position.
func (r *Receiver) onCertificate(from ids.NodeID, m *irmc.CertificateMsg) {
	sub := r.Arrived(m.Subchannel)
	switch {
	case m.Position > sub.Win.Max():
		sub.Early.Put(from, m.Position, m.Payload)
	case m.Position >= sub.Win.Start:
		r.Deliver(sub, m.Position, m.Payload)
	}
}

func (r *Receiver) onProgress(now time.Time, from ids.NodeID, m *irmc.ProgressMsg) {
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
func (r *Receiver) checkCollectors(now time.Time) {
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
		r.Queue(irmc.TagSelect, &irmc.SelectMsg{Subchannel: sc, Collector: st.collector, Epoch: st.epoch}, r.Cfg.Senders.Members...)
	}
}
