// Package hft implements the paper's "HFT" baseline: a hierarchical
// architecture in the style of Steward (Amir et al.), where every
// geographic site hosts a full BFT cluster of 3f+1 replicas and the
// wide-area protocol is crash-tolerant because a site, as a whole,
// only fails by crashing. Sites speak with threshold signatures so a
// single wide-area message proves that 2f+1 site members agreed.
//
// Protocol (normal case, matching the latency structure the paper
// measures):
//
//  1. A client submits to its local site. Non-leader sites order the
//     request in their site-local PBFT, threshold-sign a Forward, and
//     their representative ships it to the leader site.
//  2. The leader site orders all requests (its own clients' directly)
//     in its site-local PBFT; the local sequence number is the global
//     sequence number. Leader-site members threshold-sign a Proposal,
//     which the representative distributes to every site.
//  3. Every site threshold-signs an Accept for the proposal; a replica
//     executes a global sequence number once it holds the Proposal and
//     Accepts from a majority of sites (the Proposal counting as the
//     leader site's accept). The origin site's replicas reply to the
//     client.
//
// Simplifications vs. full Steward: the site representative is static
// (fault handling at the representative level is out of the evaluated
// scope), threshold signatures are emulated as 2f+1 multi-signatures
// (crypto.Combine: same quorum and message counts, k
// verifications instead of one), and the global level has no
// leader-site change (the paper's experiments fix the leader site per
// run). None of the three touches the normal-case latency structure
// the paper compares Spider against.
package hft

import (
	"errors"
	"fmt"
	"sync"

	"spider/internal/consensus"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/wire"
)

// Config parameterizes one HFT replica.
type Config struct {
	// Sites lists every site's replica group, in a globally agreed
	// order. Site groups need 3f+1 members each.
	Sites []ids.Group
	// LeaderSite indexes into Sites.
	LeaderSite int
	// Site indexes this replica's own site.
	Site int
	// Suite, Node: identity and transport.
	Suite crypto.Suite
	Node  transport.Node
	// App is the hosted application.
	App core.Application
	// Consensus carries site-local PBFT tunables (timeouts etc.).
	Consensus pbft.Config
}

func (c *Config) validate() error {
	if len(c.Sites) == 0 {
		return errors.New("hft: sites required")
	}
	if c.LeaderSite < 0 || c.LeaderSite >= len(c.Sites) {
		return errors.New("hft: leader site out of range")
	}
	if c.Site < 0 || c.Site >= len(c.Sites) {
		return errors.New("hft: own site out of range")
	}
	if c.Suite == nil || c.Node == nil || c.App == nil {
		return errors.New("hft: suite, node and app required")
	}
	if !c.Sites[c.Site].Contains(c.Suite.Node()) {
		return fmt.Errorf("hft: replica %v not in site %d", c.Suite.Node(), c.Site)
	}
	return nil
}

// --- wire messages ---------------------------------------------------------

const (
	tagForward wire.TypeTag = iota + 1
	tagProposal
	tagAccept
)

// forwardMsg ships a locally ordered request to the leader site.
type forwardMsg struct {
	Origin ids.GroupID
	Req    core.ClientRequest
	TS     crypto.ThresholdSig
}

func (m *forwardMsg) MarshalWire(w *wire.Writer) {
	w.WriteGroup(m.Origin)
	m.Req.MarshalWire(w)
	m.TS.MarshalWire(w)
}

func (m *forwardMsg) UnmarshalWire(r *wire.Reader) {
	m.Origin = r.ReadGroup()
	m.Req.UnmarshalWire(r)
	m.TS.UnmarshalWire(r)
}

func forwardPayload(origin ids.GroupID, req *core.ClientRequest) []byte {
	var w wire.Writer
	w.WriteGroup(origin)
	req.MarshalWire(&w)
	return w.Bytes()
}

// proposalMsg announces the global ordering decision of the leader
// site.
type proposalMsg struct {
	GSeq   ids.SeqNr
	Origin ids.GroupID
	Req    core.ClientRequest
	TS     crypto.ThresholdSig
}

func (m *proposalMsg) MarshalWire(w *wire.Writer) {
	w.WriteSeq(m.GSeq)
	w.WriteGroup(m.Origin)
	m.Req.MarshalWire(w)
	m.TS.MarshalWire(w)
}

func (m *proposalMsg) UnmarshalWire(r *wire.Reader) {
	m.GSeq = r.ReadSeq()
	m.Origin = r.ReadGroup()
	m.Req.UnmarshalWire(r)
	m.TS.UnmarshalWire(r)
}

func proposalPayload(gseq ids.SeqNr, origin ids.GroupID, req *core.ClientRequest) []byte {
	var w wire.Writer
	w.WriteSeq(gseq)
	w.WriteGroup(origin)
	req.MarshalWire(&w)
	return w.Bytes()
}

// acceptMsg is a site's vote for a proposal.
type acceptMsg struct {
	GSeq   ids.SeqNr
	Site   ids.GroupID
	Digest crypto.Digest
	TS     crypto.ThresholdSig
}

func (m *acceptMsg) MarshalWire(w *wire.Writer) {
	w.WriteSeq(m.GSeq)
	w.WriteGroup(m.Site)
	w.WriteRaw(m.Digest[:])
	m.TS.MarshalWire(w)
}

func (m *acceptMsg) UnmarshalWire(r *wire.Reader) {
	m.GSeq = r.ReadSeq()
	m.Site = r.ReadGroup()
	copy(m.Digest[:], r.ReadRaw(crypto.DigestSize))
	m.TS.UnmarshalWire(r)
}

func acceptPayload(gseq ids.SeqNr, site ids.GroupID, digest crypto.Digest) []byte {
	var w wire.Writer
	w.WriteSeq(gseq)
	w.WriteGroup(site)
	w.WriteRaw(digest[:])
	return w.Bytes()
}

var registry = func() *wire.Registry {
	r := wire.NewRegistry()
	r.Register(tagForward, "forward", func() wire.Message { return new(forwardMsg) })
	r.Register(tagProposal, "proposal", func() wire.Message { return new(proposalMsg) })
	r.Register(tagAccept, "accept", func() wire.Message { return new(acceptMsg) })
	return r
}()

// local item kinds ordered by the site-local PBFT.
const (
	itemForward byte = 1 // non-leader site: request to forward
	itemGlobal  byte = 2 // leader site: request to order globally
)

// localItem is the payload of the site-local consensus.
type localItem struct {
	Kind   byte
	Origin ids.GroupID
	Req    core.ClientRequest
	TS     crypto.ThresholdSig // forward proof when Origin is remote
}

func (m *localItem) MarshalWire(w *wire.Writer) {
	w.WriteU8(m.Kind)
	w.WriteGroup(m.Origin)
	m.Req.MarshalWire(w)
	m.TS.MarshalWire(w)
}

func (m *localItem) UnmarshalWire(r *wire.Reader) {
	m.Kind = r.ReadU8()
	m.Origin = r.ReadGroup()
	m.Req.UnmarshalWire(r)
	m.TS.UnmarshalWire(r)
}

// --- replica ----------------------------------------------------------------

// pendingGlobal tracks one global sequence number until executable.
type pendingGlobal struct {
	proposal *proposalMsg
	accepts  map[ids.GroupID]bool
}

// shareKey identifies a threshold-signing session at the
// representative.
type shareKey struct {
	digest crypto.Digest
}

// Replica is one HFT replica.
type Replica struct {
	cfg  Config
	me   ids.NodeID
	site ids.Group
	rep  ids.NodeID // this site's static representative

	mu       sync.Mutex
	stopped  bool
	local    *pbft.Replica
	replies  map[ids.ClientID]cachedReply
	pending  map[ids.SeqNr]*pendingGlobal
	lastExec ids.SeqNr
	shares   map[shareKey]*shareSession
}

type cachedReply struct {
	counter uint64
	result  []byte
}

// shareSession accumulates threshold shares at the representative.
type shareSession struct {
	payload []byte
	shares  []crypto.Share
	sent    bool
	build   func(ts crypto.ThresholdSig) // invoked once the threshold is met
}

// New creates an HFT replica; call Start to begin.
func New(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	site := cfg.Sites[cfg.Site]
	r := &Replica{
		cfg:     cfg,
		me:      cfg.Suite.Node(),
		site:    site,
		rep:     site.Members[0],
		replies: make(map[ids.ClientID]cachedReply),
		pending: make(map[ids.SeqNr]*pendingGlobal),
		shares:  make(map[shareKey]*shareSession),
	}
	pcfg := cfg.Consensus
	pcfg.Group = site
	pcfg.Suite = cfg.Suite
	pcfg.Node = cfg.Node
	pcfg.Stream = transport.MakeStream(transport.KindPBFT, uint32(site.ID))
	pcfg.Deliver = r.deliverLocal
	pcfg.Validate = r.validateLocal
	local, err := pbft.New(pcfg)
	if err != nil {
		return nil, err
	}
	r.local = local
	return r, nil
}

// Start launches the site-local consensus and handlers.
func (r *Replica) Start() {
	r.cfg.Node.Handle(transport.MakeStream(transport.KindClient, uint32(r.site.ID)), r.onClientFrame)
	r.cfg.Node.Handle(transport.MakeStream(transport.KindHFT, uint32(r.site.ID)), r.onWANFrame)
	if r.me == r.rep {
		r.cfg.Node.Handle(r.shareStream(), r.onShareFrame)
	}
	r.local.Start()
}

// Stop shuts the replica down.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	r.local.Stop()
}

func (r *Replica) isLeaderSite() bool { return r.cfg.Site == r.cfg.LeaderSite }

func (r *Replica) threshold() int { return 2*r.site.F + 1 }

// majority is the number of site votes (proposal + accepts) needed to
// execute: ⌊S/2⌋+1.
func (r *Replica) majority() int { return len(r.cfg.Sites)/2 + 1 }

// --- client handling --------------------------------------------------------

func (r *Replica) onClientFrame(from ids.NodeID, payload []byte) {
	req, err := core.OpenClientRequest(r.cfg.Suite, from, payload)
	if err != nil {
		return
	}
	switch req.Kind {
	case core.KindWeakRead:
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		result := r.cfg.App.ExecuteRead(req.Op)
		r.mu.Unlock()
		core.SendReply(r.cfg.Suite, r.cfg.Node, req.Client, req.Counter, result)
	case core.KindWrite, core.KindStrongRead:
		r.mu.Lock()
		cached, ok := r.replies[req.Client]
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return
		}
		if ok && cached.counter >= req.Counter {
			if cached.counter == req.Counter {
				core.SendReply(r.cfg.Suite, r.cfg.Node, req.Client, req.Counter, cached.result)
			}
			return
		}
		if err := r.cfg.Suite.Verify(req.Client.Node(), crypto.DomainClientRequest, req.SigPayload(), req.Sig); err != nil {
			return
		}
		kind := itemForward
		if r.isLeaderSite() {
			kind = itemGlobal
		}
		item := localItem{Kind: kind, Origin: r.site.ID, Req: *req}
		r.local.Order(wire.Encode(&item))
	}
}

// --- site-local consensus ----------------------------------------------------

// validateLocal vets locally ordered items (A-Validity of the site
// protocol).
func (r *Replica) validateLocal(payload []byte) error {
	var item localItem
	if err := wire.Decode(payload, &item); err != nil {
		return err
	}
	if item.Kind == itemGlobal && item.Origin != r.site.ID {
		// Remote request at the leader site: the forward's threshold
		// signature vouches for it.
		origin, ok := r.siteByID(item.Origin)
		if !ok {
			return fmt.Errorf("hft: unknown origin site %v", item.Origin)
		}
		return crypto.VerifyThreshold(r.cfg.Suite, origin, 2*origin.F+1,
			crypto.DomainHFTGlobal, forwardPayload(item.Origin, &item.Req), item.TS)
	}
	return r.cfg.Suite.Verify(item.Req.Client.Node(), crypto.DomainClientRequest,
		item.Req.SigPayload(), item.Req.Sig)
}

func (r *Replica) siteByID(id ids.GroupID) (ids.Group, bool) {
	for _, s := range r.cfg.Sites {
		if s.ID == id {
			return s, true
		}
	}
	return ids.Group{}, false
}

// deliverLocal handles site-locally ordered batches item by item.
func (r *Replica) deliverLocal(b consensus.Batch) {
	for i, payload := range b.Payloads {
		r.deliverLocalOne(b.Start+ids.SeqNr(i), payload)
	}
}

func (r *Replica) deliverLocalOne(seq ids.SeqNr, payload []byte) {
	var item localItem
	if err := wire.Decode(payload, &item); err != nil {
		return
	}
	switch {
	case item.Kind == itemForward && !r.isLeaderSite():
		// Threshold-sign the forward; the representative ships it.
		body := forwardPayload(r.site.ID, &item.Req)
		r.contributeShare(body, func(ts crypto.ThresholdSig) {
			msg := &forwardMsg{Origin: r.site.ID, Req: item.Req, TS: ts}
			r.sendToSite(r.cfg.Sites[r.cfg.LeaderSite], registry.EncodeFrame(tagForward, msg))
		})
	case item.Kind == itemGlobal && r.isLeaderSite():
		// The local sequence number is the global sequence number.
		body := proposalPayload(seq, item.Origin, &item.Req)
		r.contributeShare(body, func(ts crypto.ThresholdSig) {
			msg := &proposalMsg{GSeq: seq, Origin: item.Origin, Req: item.Req, TS: ts}
			frame := registry.EncodeFrame(tagProposal, msg)
			for _, site := range r.cfg.Sites {
				r.sendToSite(site, frame)
			}
		})
	case item.Kind == itemForward && r.isLeaderSite():
		// A leader-site replica should have ordered this as global;
		// tolerate by re-ordering with the right kind.
		item.Kind = itemGlobal
		r.local.Order(wire.Encode(&item))
	}
}

// contributeShare signs the payload and routes the share to the
// representative (possibly ourselves). The build callback runs on the
// representative once 2f+1 shares are collected.
func (r *Replica) contributeShare(payload []byte, build func(crypto.ThresholdSig)) {
	share := crypto.SignShare(r.cfg.Suite, crypto.DomainHFTGlobal, payload)
	if r.me == r.rep {
		r.collectShare(payload, share, build)
		return
	}
	// Ship the share to the representative: a signed share message
	// needs no extra authentication (the share signature is checked
	// against the payload digest at the collector).
	var w wire.Writer
	w.WriteBytes(payload)
	share.MarshalWire(&w)
	r.cfg.Node.Send(r.rep, r.shareStream(), w.Bytes())
}

func (r *Replica) shareStream() transport.Stream {
	return transport.MakeStream(transport.KindHFT, uint32(r.site.ID)|0x800000)
}

// onShareFrame collects shares at the representative.
func (r *Replica) onShareFrame(from ids.NodeID, payload []byte) {
	rd := wire.NewReader(payload)
	body := rd.ReadBytes()
	var share crypto.Share
	share.UnmarshalWire(rd)
	if rd.Close() != nil || share.Node != from || !r.site.Contains(from) {
		return
	}
	if err := r.cfg.Suite.Verify(from, crypto.DomainHFTGlobal, body, share.Sig); err != nil {
		return
	}
	r.collectShare(body, share, nil)
}

// collectShare adds one share; build may be nil when the session
// already exists (it is installed by the representative's own
// contribution, which always happens since the representative also
// orders the item).
func (r *Replica) collectShare(payload []byte, share crypto.Share, build func(crypto.ThresholdSig)) {
	key := shareKey{digest: crypto.Hash(payload)}
	r.mu.Lock()
	sess, ok := r.shares[key]
	if !ok {
		sess = &shareSession{payload: payload}
		r.shares[key] = sess
	}
	if build != nil {
		sess.build = build
	}
	sess.shares = append(sess.shares, share)
	ready := !sess.sent && sess.build != nil
	var ts crypto.ThresholdSig
	if ready {
		var okc bool
		ts, okc = crypto.Combine(sess.shares, r.threshold())
		ready = okc
		if ready {
			sess.sent = true
		}
	}
	build = sess.build
	r.mu.Unlock()
	if ready {
		build(ts)
	}
}

// sendToSite ships a frame to every member of a site.
func (r *Replica) sendToSite(site ids.Group, frame []byte) {
	stream := transport.MakeStream(transport.KindHFT, uint32(site.ID))
	r.cfg.Node.Multicast(site.Members, stream, frame)
}

// --- global protocol ----------------------------------------------------------

func (r *Replica) onWANFrame(from ids.NodeID, payload []byte) {
	tag, msg, err := registry.DecodeFrame(payload)
	if err != nil {
		return
	}
	switch tag {
	case tagForward:
		r.onForward(msg.(*forwardMsg))
	case tagProposal:
		r.onProposal(msg.(*proposalMsg))
	case tagAccept:
		r.onAccept(msg.(*acceptMsg))
	}
	_ = from
}

func (r *Replica) onForward(m *forwardMsg) {
	if !r.isLeaderSite() {
		return
	}
	origin, ok := r.siteByID(m.Origin)
	if !ok || origin.ID == r.site.ID {
		return
	}
	if err := crypto.VerifyThreshold(r.cfg.Suite, origin, 2*origin.F+1,
		crypto.DomainHFTGlobal, forwardPayload(m.Origin, &m.Req), m.TS); err != nil {
		return
	}
	r.mu.Lock()
	cached, seen := r.replies[m.Req.Client]
	stopped := r.stopped
	r.mu.Unlock()
	if stopped || (seen && cached.counter >= m.Req.Counter) {
		return
	}
	item := localItem{Kind: itemGlobal, Origin: m.Origin, Req: m.Req, TS: m.TS}
	r.local.Order(wire.Encode(&item))
}

func (r *Replica) onProposal(m *proposalMsg) {
	leader := r.cfg.Sites[r.cfg.LeaderSite]
	if err := crypto.VerifyThreshold(r.cfg.Suite, leader, 2*leader.F+1,
		crypto.DomainHFTGlobal, proposalPayload(m.GSeq, m.Origin, &m.Req), m.TS); err != nil {
		return
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	p := r.pendingLocked(m.GSeq)
	first := p.proposal == nil
	if first {
		p.proposal = m
	}
	r.mu.Unlock()
	if !first {
		return
	}

	// Vote: threshold-sign an accept and let the representative ship
	// it to every other site. The leader site's proposal is its vote.
	if !r.isLeaderSite() {
		digest := crypto.Hash(proposalPayload(m.GSeq, m.Origin, &m.Req))
		body := acceptPayload(m.GSeq, r.site.ID, digest)
		gseq := m.GSeq
		r.contributeShare(body, func(ts crypto.ThresholdSig) {
			accept := &acceptMsg{GSeq: gseq, Site: r.site.ID, Digest: digest, TS: ts}
			frame := registry.EncodeFrame(tagAccept, accept)
			for _, site := range r.cfg.Sites {
				r.sendToSite(site, frame)
			}
		})
	}
	r.tryExecute()
}

func (r *Replica) onAccept(m *acceptMsg) {
	site, ok := r.siteByID(m.Site)
	if !ok {
		return
	}
	if err := crypto.VerifyThreshold(r.cfg.Suite, site, 2*site.F+1,
		crypto.DomainHFTGlobal, acceptPayload(m.GSeq, m.Site, m.Digest), m.TS); err != nil {
		return
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	p := r.pendingLocked(m.GSeq)
	p.accepts[m.Site] = true
	r.mu.Unlock()
	r.tryExecute()
}

func (r *Replica) pendingLocked(gseq ids.SeqNr) *pendingGlobal {
	p, ok := r.pending[gseq]
	if !ok {
		p = &pendingGlobal{accepts: make(map[ids.GroupID]bool)}
		r.pending[gseq] = p
	}
	return p
}

// tryExecute runs every executable global sequence number in order.
func (r *Replica) tryExecute() {
	for {
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		next := r.lastExec + 1
		p, ok := r.pending[next]
		if !ok || p.proposal == nil {
			r.mu.Unlock()
			return
		}
		votes := len(p.accepts) + 1 // proposal = leader site's vote
		if votes < r.majority() {
			r.mu.Unlock()
			return
		}
		req := &p.proposal.Req
		origin := p.proposal.Origin
		delete(r.pending, next)
		r.lastExec = next

		var result []byte
		executed := false
		if cached, seen := r.replies[req.Client]; !seen || cached.counter < req.Counter {
			if req.Kind == core.KindStrongRead {
				result = r.cfg.App.ExecuteRead(req.Op)
			} else {
				result = r.cfg.App.Execute(req.Op)
			}
			r.replies[req.Client] = cachedReply{counter: req.Counter, result: result}
			executed = true
		}
		mine := origin == r.site.ID
		r.mu.Unlock()

		if executed && mine {
			core.SendReply(r.cfg.Suite, r.cfg.Node, req.Client, req.Counter, result)
		}
	}
}
