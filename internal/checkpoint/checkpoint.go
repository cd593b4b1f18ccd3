// Package checkpoint implements the checkpoint component of Figure 13
// in the paper. Each replica group runs one component per replica:
// replicas announce signed hashes of their snapshots, f+1 matching
// announcements form a stable checkpoint (CP-Safety: at least one
// correct replica produced it), and trailing replicas fetch the full
// state — from their own group or, for execution groups, from other
// execution groups (Section 3.5).
//
// The component gossips its latest stable checkpoint periodically,
// which provides the CP-Liveness property that every correct replica
// eventually learns of stable checkpoints even after missing the
// original announcements.
package checkpoint

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/transport"
	"spider/internal/wire"
)

// OnStableFunc receives stable checkpoints. Sequence numbers increase
// monotonically; superseded checkpoints are skipped. The callback must
// not block for long (it runs on the component's handler path).
type OnStableFunc func(seq ids.SeqNr, state []byte)

// Config parameterizes a checkpoint component.
type Config struct {
	// Group is the replica's own group; stability needs F+1 matching
	// announcements from it.
	Group ids.Group
	// Suite signs announcements and authenticates fetch traffic.
	Suite crypto.Suite
	// Node is the replica's transport handle.
	Node transport.Node
	// Stream carries announcements and fetch traffic of this group.
	Stream transport.Stream
	// OnStable is invoked for every stable checkpoint (with state).
	OnStable OnStableFunc
	// GossipInterval is how often the latest stable checkpoint is
	// re-announced (default 500ms).
	GossipInterval time.Duration
}

// retainSnapshots is how many own snapshots a component keeps for
// serving fetches.
const retainSnapshots = 2

func (c *Config) validate() error {
	if len(c.Group.Members) == 0 {
		return errors.New("checkpoint: group required")
	}
	if c.Suite == nil || c.Node == nil {
		return errors.New("checkpoint: suite and node required")
	}
	if c.OnStable == nil {
		return errors.New("checkpoint: OnStable callback required")
	}
	return nil
}

// errMismatch rejects a certificate entry that vouches for another
// checkpoint than the one it comes with.
var errMismatch = errors.New("checkpoint: announcement does not match the state")

// Message tags.
const (
	tagAnnounce wire.TypeTag = iota + 1
	tagFetchReq
	tagFetchReply
)

// announce is a replica's claim to hold a snapshot for Seq with the
// given hash. The signature covers the encoded frame including the
// group so announcements cannot be replayed across groups.
type announce struct {
	Group ids.GroupID
	Seq   ids.SeqNr
	Hash  crypto.Digest
}

func (m *announce) MarshalWire(w *wire.Writer) {
	w.WriteGroup(m.Group)
	w.WriteSeq(m.Seq)
	w.WriteRaw(m.Hash[:])
}

func (m *announce) UnmarshalWire(r *wire.Reader) {
	m.Group = r.ReadGroup()
	m.Seq = r.ReadSeq()
	copy(m.Hash[:], r.ReadRaw(crypto.DigestSize))
}

// signedAnnounce is a transferable announcement used in certificates.
type signedAnnounce struct {
	From  ids.NodeID
	Frame []byte
	Sig   []byte
}

func (m *signedAnnounce) MarshalWire(w *wire.Writer) {
	w.WriteNode(m.From)
	w.WriteBytes(m.Frame)
	w.WriteBytes(m.Sig)
}

func (m *signedAnnounce) UnmarshalWire(r *wire.Reader) {
	m.From = r.ReadNode()
	m.Frame = r.ReadBytes()
	m.Sig = r.ReadBytes()
}

// fetchReq asks for any stable checkpoint at or above MinSeq.
type fetchReq struct {
	MinSeq ids.SeqNr
}

func (m *fetchReq) MarshalWire(w *wire.Writer)   { w.WriteSeq(m.MinSeq) }
func (m *fetchReq) UnmarshalWire(r *wire.Reader) { m.MinSeq = r.ReadSeq() }

// fetchReply carries a full checkpoint with its certificate. The
// certificate is self-certifying, so the reply needs no additional
// authentication beyond transport integrity.
type fetchReply struct {
	Group ids.GroupID
	Seq   ids.SeqNr
	State []byte
	Cert  []signedAnnounce
}

func (m *fetchReply) MarshalWire(w *wire.Writer) {
	w.WriteGroup(m.Group)
	w.WriteSeq(m.Seq)
	w.WriteBytes(m.State)
	w.WriteInt(len(m.Cert))
	for i := range m.Cert {
		m.Cert[i].MarshalWire(w)
	}
}

func (m *fetchReply) UnmarshalWire(r *wire.Reader) {
	m.Group = r.ReadGroup()
	m.Seq = r.ReadSeq()
	m.State = r.ReadBytes()
	n := r.ReadInt()
	if n < 0 || n > 1<<10 {
		return
	}
	m.Cert = make([]signedAnnounce, n)
	for i := range m.Cert {
		m.Cert[i].UnmarshalWire(r)
	}
}

var registry = func() *wire.Registry {
	r := wire.NewRegistry()
	r.Register(tagAnnounce, "announce", func() wire.Message { return new(signedAnnounce) })
	r.Register(tagFetchReq, "fetch-req", func() wire.Message { return new(fetchReq) })
	r.Register(tagFetchReply, "fetch-reply", func() wire.Message { return new(fetchReply) })
	return r
}()

// Component implements the checkpoint protocol for one replica.
type Component struct {
	cfg    Config
	me     ids.NodeID
	others []ids.NodeID // the group without me: announcements go there

	mu      sync.Mutex
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup

	// Own snapshots by sequence number, retained for serving fetches.
	snapshots map[ids.SeqNr][]byte
	snapSeqs  []ids.SeqNr // insertion order for pruning

	// Announcements per sequence number, one per member, grouped by the
	// snapshot hash they vouch for.
	announces *quorum.Collector[ids.SeqNr, crypto.Digest, signedAnnounce]

	// Latest stable checkpoint.
	stableSeq   ids.SeqNr
	stableState []byte
	stableCert  []signedAnnounce
	ownAnnounce []byte // envelope of our latest announcement, re-gossiped

	// Peer groups execution replicas may fetch from (Section 3.5).
	fetchPeers map[ids.GroupID]ids.Group

	// Pending fetch floor: state below this is known missing.
	wantSeq ids.SeqNr

	// fetches counts Fetch invocations (including gossip retries); a
	// warm restart from disk must leave it at zero.
	fetches atomic.Int64
}

// New creates a checkpoint component and registers its handler.
func New(cfg Config) (*Component, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 500 * time.Millisecond
	}
	c := &Component{
		cfg:        cfg,
		me:         cfg.Suite.Node(),
		others:     slices.DeleteFunc(slices.Clone(cfg.Group.Members), func(m ids.NodeID) bool { return m == cfg.Suite.Node() }),
		done:       make(chan struct{}),
		snapshots:  make(map[ids.SeqNr][]byte),
		announces:  quorum.New[ids.SeqNr, crypto.Digest, signedAnnounce](quorum.Count(cfg.Group.F+1), len(cfg.Group.Members)),
		fetchPeers: make(map[ids.GroupID]ids.Group),
	}
	cfg.Node.Handle(cfg.Stream, c.onFrame)
	c.wg.Add(1)
	go c.gossipLoop()
	return c, nil
}

// Stop terminates the gossip loop.
func (c *Component) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.done)
	c.mu.Unlock()
	c.wg.Wait()
}

// AddFetchPeers registers another group whose members may serve
// checkpoint fetches (used by execution groups per Section 3.5).
func (c *Component) AddFetchPeers(g ids.Group) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fetchPeers[g.ID] = g.Clone()
}

// StableSeq returns the latest stable checkpoint sequence number.
func (c *Component) StableSeq() ids.SeqNr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stableSeq
}

// Generate implements gen_cp: snapshot the state for seq and announce
// its hash to the group. The own vote is counted here, not through a
// self-delivered copy, so a replica never verifies its own signature;
// if it completes f+1 matching votes the checkpoint becomes stable.
func (c *Component) Generate(seq ids.SeqNr, state []byte) {
	ann := &announce{Group: c.cfg.Group.ID, Seq: seq, Hash: crypto.Hash(state)}
	frame := wire.Encode(ann)
	sig := c.cfg.Suite.Sign(crypto.DomainCheckpoint, frame)
	raw := &signedAnnounce{From: c.me, Frame: frame, Sig: sig}
	env := registry.EncodeFrame(tagAnnounce, raw)

	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.snapshots[seq] = state
	c.snapSeqs = append(c.snapSeqs, seq)
	for len(c.snapSeqs) > retainSnapshots {
		old := c.snapSeqs[0]
		c.snapSeqs = c.snapSeqs[1:]
		if old != seq {
			delete(c.snapshots, old)
		}
	}
	c.ownAnnounce = env
	var installed, fetch bool
	if !c.staleAnnounceLocked(c.me, seq) {
		installed, fetch = c.admitLocked(seq, c.me, ann.Hash, *raw)
	}
	c.finishUnlock(seq, installed, fetch)

	transport.Multicast(c.cfg.Node, c.others, c.cfg.Stream, env)
}

// Fetches reports how many full-state fetches this component issued.
// Restart paths use it to assert that rehydrating from disk avoided
// the cold full-state transfer.
func (c *Component) Fetches() int64 {
	return c.fetches.Load()
}

// Fetch implements fetch_cp: ask the group (and registered peer
// groups) for a stable checkpoint at or above seq.
func (c *Component) Fetch(seq ids.SeqNr) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.fetches.Add(1)
	if seq > c.wantSeq {
		c.wantSeq = seq
	}
	targets := slices.Clone(c.others)
	for _, g := range c.fetchPeers {
		targets = append(targets, g.Members...)
	}
	c.mu.Unlock()

	env := registry.EncodeFrame(tagFetchReq, &fetchReq{MinSeq: seq})
	for _, to := range targets {
		c.cfg.Node.Send(to, c.cfg.Stream, env)
	}
}

func (c *Component) gossipLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			c.mu.Lock()
			env := c.ownAnnounce
			want := c.wantSeq
			stable := c.stableSeq
			c.mu.Unlock()
			if env != nil {
				transport.Multicast(c.cfg.Node, c.others, c.cfg.Stream, env)
			}
			if want > stable {
				// Still missing state: keep asking.
				c.Fetch(want)
			}
		}
	}
}

func (c *Component) onFrame(from ids.NodeID, payload []byte) {
	tag, msg, err := registry.DecodeFrame(payload)
	if err != nil {
		return
	}
	switch tag {
	case tagAnnounce:
		c.onAnnounce(msg.(*signedAnnounce))
	case tagFetchReq:
		c.onFetchReq(from, msg.(*fetchReq))
	case tagFetchReply:
		c.onFetchReply(msg.(*fetchReply))
	}
}

// decodeAnnounce runs the checks on a signed announcement that cost no
// public-key operation: signer membership, decoding, group binding.
// The content it returns is not authenticated yet.
func decodeAnnounce(raw *signedAnnounce, group ids.Group) (*announce, error) {
	if !group.Contains(raw.From) {
		return nil, fmt.Errorf("checkpoint: signer %v not in group %v", raw.From, group.ID)
	}
	ann := new(announce)
	if err := wire.Decode(raw.Frame, ann); err != nil {
		return nil, err
	}
	if ann.Group != group.ID {
		return nil, fmt.Errorf("checkpoint: announcement for group %v, want %v", ann.Group, group.ID)
	}
	return ann, nil
}

// verifyAnnounce checks one signed announcement against a group.
func (c *Component) verifyAnnounce(raw *signedAnnounce, group ids.Group) (*announce, error) {
	ann, err := decodeAnnounce(raw, group)
	if err != nil {
		return nil, err
	}
	if err := c.cfg.Suite.Verify(raw.From, crypto.DomainCheckpoint, raw.Frame, raw.Sig); err != nil {
		return nil, err
	}
	return ann, nil
}

// staleAnnounceLocked reports whether an announcement can no longer
// change anything: the component has stopped, the checkpoint is
// already stable, or its signer's vote for it is counted.
func (c *Component) staleAnnounceLocked(from ids.NodeID, seq ids.SeqNr) bool {
	return c.stopped || seq <= c.stableSeq || c.announces.Voted(seq, from) != nil
}

func (c *Component) onAnnounce(raw *signedAnnounce) {
	ann, err := decodeAnnounce(raw, c.cfg.Group)
	if err != nil {
		return
	}
	// Cheap acceptance check first: every member re-gossips its
	// announcement each GossipInterval, so most arrivals are repeats
	// or already stable and not worth a signature check. The check
	// only reads: a forged frame leaves no vote to shadow the real one.
	c.mu.Lock()
	stale := c.staleAnnounceLocked(raw.From, ann.Seq)
	c.mu.Unlock()
	if stale {
		return
	}
	if err := c.cfg.Suite.Verify(raw.From, crypto.DomainCheckpoint, raw.Frame, raw.Sig); err != nil {
		return
	}
	c.mu.Lock()
	if c.staleAnnounceLocked(raw.From, ann.Seq) {
		c.mu.Unlock()
		return
	}
	installed, fetch := c.admitLocked(ann.Seq, raw.From, ann.Hash, *raw)
	c.finishUnlock(ann.Seq, installed, fetch)
}

// admitLocked counts one authenticated vote. When it completes f+1
// matching votes, the checkpoint is installed if this replica holds the
// matching state, and otherwise must be fetched.
func (c *Component) admitLocked(seq ids.SeqNr, from ids.NodeID, hash crypto.Digest, raw signedAnnounce) (installed, fetch bool) {
	c.announces.Add(seq, from, hash, raw)
	if !c.announces.Reached(seq, hash) {
		return false, false
	}
	var cert []signedAnnounce
	for _, raw := range c.announces.Matching(seq, hash) {
		cert = append(cert, raw)
	}
	// Stable. Deliver if we hold the matching state; otherwise fetch.
	state, haveState := c.snapshots[seq]
	if haveState && crypto.Hash(state) != hash {
		// Our snapshot diverges from the stable one — this replica's
		// state is corrupt; a fetch repairs it.
		haveState = false
	}
	if !haveState {
		if seq > c.wantSeq {
			c.wantSeq = seq
		}
		return false, true
	}
	c.installStableLocked(seq, state, cert)
	return true, false
}

// finishUnlock releases the lock and carries out what admitLocked
// decided: deliver the installed checkpoint or fetch the missing state.
func (c *Component) finishUnlock(seq ids.SeqNr, installed, fetch bool) {
	cb, state := c.cfg.OnStable, c.stableState
	c.mu.Unlock()
	switch {
	case installed:
		cb(seq, state)
	case fetch:
		c.Fetch(seq)
	}
}

// installStableLocked records a stable checkpoint and prunes older
// bookkeeping. Callers invoke OnStable after releasing the lock.
func (c *Component) installStableLocked(seq ids.SeqNr, state []byte, cert []signedAnnounce) {
	c.stableSeq = seq
	c.stableState = state
	c.stableCert = cert
	if c.wantSeq <= seq {
		c.wantSeq = 0
	}
	c.announces.DropBelow(seq + 1)
}

func (c *Component) onFetchReq(from ids.NodeID, req *fetchReq) {
	c.mu.Lock()
	if c.stopped || c.stableSeq == 0 || c.stableSeq < req.MinSeq || c.stableState == nil {
		c.mu.Unlock()
		return
	}
	reply := &fetchReply{
		Group: c.cfg.Group.ID,
		Seq:   c.stableSeq,
		State: c.stableState,
		Cert:  c.stableCert,
	}
	c.mu.Unlock()
	c.cfg.Node.Send(from, c.cfg.Stream, registry.EncodeFrame(tagFetchReply, reply))
}

func (c *Component) onFetchReply(reply *fetchReply) {
	c.mu.Lock()
	if c.stopped || reply.Seq <= c.stableSeq {
		c.mu.Unlock()
		return
	}
	group := c.cfg.Group
	if reply.Group != group.ID {
		peer, ok := c.fetchPeers[reply.Group]
		if !ok {
			c.mu.Unlock()
			return
		}
		group = peer
	}
	c.mu.Unlock()

	// Verify the certificate: F+1 distinct members of the issuing
	// group signed matching announcements whose hash covers the state.
	hash := crypto.Hash(reply.State)
	cert := quorum.Cert{Rule: quorum.Count(group.F + 1), Members: group}
	if !cert.Verify(len(reply.Cert), func(i int) ids.NodeID { return reply.Cert[i].From }, func(i int) error {
		ann, err := c.verifyAnnounce(&reply.Cert[i], group)
		if err == nil && (ann.Seq != reply.Seq || ann.Hash != hash) {
			err = errMismatch
		}
		return err
	}) {
		return
	}

	c.mu.Lock()
	if c.stopped || reply.Seq <= c.stableSeq {
		c.mu.Unlock()
		return
	}
	// Adopt the certificate with our own group id view: the state is
	// interchangeable across execution groups by construction
	// (CP-E-Equivalence holds per group; Section 3.5 allows
	// cross-group transfer).
	c.installStableLocked(reply.Seq, reply.State, reply.Cert)
	cb := c.cfg.OnStable
	c.mu.Unlock()
	cb(reply.Seq, reply.State)
}
