package pbft

import (
	"sort"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/wire"
)

// The core is PBFT without its concurrency: the log, the votes, the view
// change, the checkpoints, the request queue and the failure detector,
// changed only through Step. It never reads the clock (every event
// carries its time), never blocks, starts no goroutine and verifies
// nothing: frames reach it already checked (Replica.check), and
// whatever it wants done — a frame sent, a vote authenticated and
// multicast, a batch handed up — it returns as actions, in the order it
// wants them done. Replica wraps it with the lock, the transport, one
// timer and the delivery goroutine.

type eventKind uint8

const (
	evFrame eventKind = iota + 1 // a checked frame
	evOrder                      // a payload to order
	evGC                         // delivered payloads below a global sequence number may go
	evTick                       // the timer fired
	evTake                       // the delivery goroutine takes the next batch
)

// event is one input to Step.
type event struct {
	kind    eventKind
	now     time.Time
	in      *inbound      // evFrame
	payload []byte        // evOrder
	digest  crypto.Digest // evOrder: crypto.Hash(payload)
	before  ids.SeqNr     // evGC
}

type actionKind uint8

const (
	actSend          actionKind = iota + 1 // env to one member
	actMulticast                           // env to every member, this replica included
	actAuthMulticast                       // authenticate msg, then multicast it
	actDeliverable                         // evTake has work
	actDeliver                             // the batch evTake took
	actViewInstalled                       // view was installed
)

// action is one thing Step asks Replica to do.
type action struct {
	kind   actionKind
	to     ids.NodeID      // actSend
	env    []byte          // actSend, actMulticast: a sealed envelope
	tag    wire.TypeTag    // actAuthMulticast
	msg    wire.Marshaler  // actAuthMulticast
	signed bool            // actAuthMulticast: sign, whatever NormalCaseAuth says
	view   uint64          // actViewInstalled
	batch  consensus.Batch // actDeliver
}

// reqState tracks where a payload known to this replica currently is.
type reqState uint8

const (
	reqQueued    reqState = iota + 1 // waiting to be proposed
	reqInflight                      // part of a proposed batch
	reqCommitted                     // its batch committed here; waiting for Deliver
	reqDelivered                     // delivered to the application
)

// voteKey is what a prepare or commit vouches for: the entry whose view
// and batch digest it names.
type voteKey struct {
	view   uint64
	digest crypto.Digest
}

// entry is the log slot for one batch sequence number.
type entry struct {
	seq      uint64
	view     uint64
	digest   crypto.Digest
	payloads [][]byte
	pdigests []crypto.Digest // per-payload digests, cached (see payloadDigests)
	havePP   bool
	ppRaw    signedRaw

	prepared    bool
	committed   bool
	sentPrepare bool
	sentCommit  bool
	delivered   bool
	globalStart uint64 // first global sequence number (set at delivery)
	globalEnd   uint64 // last global sequence number (set at delivery)
}

// key is what a vote must name to count toward this entry.
func (e *entry) key() voteKey { return voteKey{view: e.view, digest: e.digest} }

// payloadDigests returns the entry's per-payload digests, computing and
// caching them on first use (entries installed via commit certificates
// arrive without the cache).
func (e *entry) payloadDigests() []crypto.Digest {
	if e.pdigests == nil && len(e.payloads) > 0 {
		e.pdigests = payloadDigests(e.payloads)
	}
	return e.pdigests
}

type queuedReq struct {
	payload []byte
	digest  crypto.Digest
}

// ckptKey is what a checkpoint vote vouches for at its batch.
type ckptKey struct {
	global uint64
	chain  crypto.Digest
}

// jumpTarget describes a stable checkpoint this replica should fast
// forward to because it fell behind the group.
type jumpTarget struct {
	batch  uint64
	global uint64
	chain  crypto.Digest
}

type vcVote struct {
	msg *viewChange
	raw signedRaw
}

// inbound is one frame on its way to the core, with everything its
// check worked out off the lock: the decoded message, payload validation
// and certificate verdicts.
type inbound struct {
	from      ids.NodeID
	tag       wire.TypeTag
	msg       wire.Message
	raw       signedRaw
	env       []byte
	valErr    error          // tagPrePrepare: payload validation result
	validated bool           // tagPrePrepare: payloads were validated
	sv        *statusVerdict // tagStatusReply: certificate verdicts
	vcOK      bool           // tagViewChange: evidence verified
	nv        *nvVerdict     // tagNewView: quorum + reissue plan
	// fallback is set on a MAC-authenticated vote whose vector did not
	// verify: the frame itself is dropped, and the core asks its sender
	// for a signed copy instead.
	fallback *voteRequest
}

// core is one replica's protocol state. Only Step and the queries a
// frame's check asks change or read it, and Replica serializes both.
type core struct {
	cfg *Config
	me  ids.NodeID
	now time.Time // the time of the event being stepped
	out []action  // Step's outbox, reused

	view       uint64
	inVC       bool
	vcTarget   uint64
	vcDeadline time.Time
	// curTimeout is the view-change timeout while view changes fail in a
	// row, doubling from the detector's; zero otherwise (see timeout).
	curTimeout time.Duration

	nextSeq uint64 // leader: next batch sequence to propose
	log     map[uint64]*entry
	lowWM   uint64 // last stable (garbage-collected) batch

	// The votes, one per member per batch sequence number (per target
	// view for view changes). A vote at a sequence number also has a log
	// entry there, and both go together.
	prepares    *quorum.Collector[uint64, voteKey, signedRaw]
	commits     *quorum.Collector[uint64, voteKey, signedRaw]
	checkpoints *quorum.Collector[uint64, ckptKey, signedRaw]
	viewChanges *quorum.Collector[uint64, struct{}, vcVote]

	nextDeliver uint64        // next batch to take
	nextGlobal  uint64        // next global sequence number to assign
	chain       crypto.Digest // rolling digest of delivered batches

	queue []queuedReq
	seen  map[crypto.Digest]reqState
	// pending times the payloads this replica Ordered until their batch
	// commits here, and lat smooths those waits (detector.go).
	pending pendingClock
	lat     orderLatency
	// suspicions holds when each member's latest suspicion of the
	// current view arrived, suspectedAt when this replica last sent one
	// (zero: not in this view).
	suspicions  map[ids.NodeID]time.Time
	suspectedAt time.Time
	// tookAt is when evTake last took a batch.
	tookAt time.Time
	// retired holds the payloads delivered below the latest stable
	// checkpoint; their seen records go when the next one stabilizes.
	retired []crypto.Digest

	stableProof  []signedRaw
	stableGlobal uint64
	stableChain  crypto.Digest
	pendingJump  *jumpTarget // catch-up target, performed by evTake

	heldVotes     map[ids.NodeID][]*inbound // early votes per sender, see handleVote
	lastStatusReq time.Time
	// flushAt is when the partial batch waiting behind in-flight
	// instances is proposed anyway; zero while none waits.
	flushAt  time.Time
	nextTick time.Time // next timeout check; zero before the first tick

	// slow is the detector's slowness rule (detector.go).
	slow slowness

	// vcCount counts every view change this replica entered (timeout-
	// driven, join-amplified, or proactive), for figures and chaos
	// artifacts.
	vcCount uint64

	// View-change emission state for the MAC fast path: after entering
	// a view change the replica may briefly hold its view-change
	// message back (vcHold) while the proof-upgrade round replaces
	// MAC-authenticated prepare votes with signed re-votes, so the
	// message can carry transferable prepared proofs. vcSent marks the
	// message for vcTarget as emitted.
	vcSent bool
	vcHold time.Time

	// voteReqAt rate-limits signed-vote fallback requests per peer;
	// voteAnsAt rate-limits the answers, so a replayed (validly
	// signed) voteRequest envelope cannot buy unbounded signing work.
	voteReqAt map[ids.NodeID]time.Time
	voteAnsAt map[ids.NodeID]time.Time

	// Delivery progress tracking for stuck detection.
	progressSeq uint64
	progressAt  time.Time

	// lastNewViewEnv is the envelope that installed the current view,
	// relayed to laggards in status replies.
	lastNewViewEnv []byte
}

func newCore(cfg *Config, now time.Time) *core {
	n := len(cfg.Group.Members)
	c := &core{
		cfg:         cfg,
		me:          cfg.Suite.Node(),
		view:        cfg.StartView,
		nextSeq:     1,
		nextDeliver: 1,
		nextGlobal:  1,
		log:         make(map[uint64]*entry),
		prepares:    quorum.New[uint64, voteKey, signedRaw](cfg.Policy, n),
		commits:     quorum.New[uint64, voteKey, signedRaw](cfg.Policy, n),
		checkpoints: quorum.New[uint64, ckptKey, signedRaw](cfg.Policy, n),
		viewChanges: quorum.New[uint64, struct{}, vcVote](cfg.Policy, n),
		seen:        make(map[crypto.Digest]reqState),
		pending:     newPendingClock(),
		voteReqAt:   make(map[ids.NodeID]time.Time),
		voteAnsAt:   make(map[ids.NodeID]time.Time),
	}
	c.slow = newSlowness(c.tickEvery(), now)
	return c
}

// Step applies one event and returns what Replica must do about it,
// in order. The returned slice is valid until the next Step.
func (c *core) Step(ev event) []action {
	c.now = ev.now
	clear(c.out)
	c.out = c.out[:0]
	switch ev.kind {
	case evFrame:
		c.frame(ev.in)
	case evOrder:
		c.order(ev.payload, ev.digest)
	case evGC:
		c.gc(ev.before)
	case evTick:
		c.tick()
	case evTake:
		c.take()
	}
	return c.out
}

// wake is when the core next wants a tick: the periodic check, a due
// flush, or the moment it would suspect the leader.
func (c *core) wake() time.Time {
	w := c.nextTick
	if !c.flushAt.IsZero() && c.flushAt.Before(w) {
		w = c.flushAt
	}
	if at, ok := c.suspectAt(); ok && at.Before(w) {
		w = at
	}
	return w
}

// timeout is how long this replica lets the leader keep a payload
// waiting: the detector's estimate, RequestTimeout while a committed
// batch waits for Deliver here, or the backed-off view-change timeout
// while view changes fail in a row.
func (c *core) timeout() time.Duration {
	switch {
	case c.curTimeout > 0:
		return c.curTimeout
	case c.headCommitted():
		return c.cfg.RequestTimeout
	}
	return c.lat.timeout(c.cfg.RequestTimeout)
}

// suspectAt is when tick next has to look at the oldest pending
// payload: when it will have waited out the timeout since it was
// Ordered and since the last batch taken (unless this replica's
// suspicion is already out), or RequestTimeout since it was Ordered,
// whichever comes first — or earlier, as pending.floor may be stale.
// False while nothing is pending or a view change runs.
func (c *core) suspectAt() (time.Time, bool) {
	if c.inVC || len(c.pending.since) == 0 {
		return time.Time{}, false
	}
	at := c.pending.floor.Add(c.cfg.RequestTimeout)
	if !c.suspecting() {
		if s := c.detectFrom(c.pending.floor).Add(c.timeout()); s.Before(at) {
			at = s
		}
	}
	return at, true
}

// detectFrom is when the detector starts counting a wait that began at
// t: then, or when the last batch was taken if that is later. A batch
// taken is progress, and what waited while Deliver was blocked waited
// for this replica, not for the leader.
func (c *core) detectFrom(t time.Time) time.Time {
	if c.tookAt.After(t) {
		return c.tookAt
	}
	return t
}

// headCommitted reports whether the next batch to take is committed: it
// waits for the delivery goroutine, which a blocked Deliver holds.
func (c *core) headCommitted() bool {
	e, ok := c.log[c.nextDeliver]
	return ok && e.committed && !e.delivered
}

// deliverable reports whether evTake has work: the next batch is
// committed, or a catch-up jump is pending.
func (c *core) deliverable() bool { return c.headCommitted() || c.pendingJump != nil }

// notify tells Replica when evTake has work.
func (c *core) notify() {
	if c.deliverable() {
		c.out = append(c.out, action{kind: actDeliverable})
	}
}

func (c *core) send(to ids.NodeID, env []byte) {
	c.out = append(c.out, action{kind: actSend, to: to, env: env})
}

// multicast sends a sealed envelope to every group member, including
// this replica (self-delivery keeps vote handling uniform).
func (c *core) multicast(env []byte) {
	c.out = append(c.out, action{kind: actMulticast, env: env})
}

// authMulticast has Replica authenticate m and multicast it, in the
// order the core produced them.
// Used for the high-rate normal-case messages (prepare, commit — signed
// or MAC-vector authenticated per NormalCaseAuth) and for checkpoints
// (always signed, they form certificates); messages whose raws must be
// stored at once (pre-prepare, view change, new view) are sealed here.
func (c *core) authMulticast(tag wire.TypeTag, m wire.Marshaler, signed bool) {
	c.out = append(c.out, action{kind: actAuthMulticast, tag: tag, msg: m, signed: signed})
}

// seal signs a message and returns the envelope bytes to put on the
// wire, plus the raw for proof storage.
func (c *core) seal(tag wire.TypeTag, m wire.Marshaler) ([]byte, signedRaw) {
	frame := registry.EncodeFrame(tag, m)
	raw := signedRaw{
		From:  c.me,
		Frame: frame,
		Sig:   c.cfg.Suite.Sign(crypto.DomainPBFT, frame),
	}
	return wire.Encode(&raw), raw
}

// macMode reports whether normal-case messages use the MAC fast path.
func (c *core) macMode() bool { return c.cfg.NormalCaseAuth != AuthSignatures }

// window is how far above the watermark the core accepts protocol
// messages: twice the proposal window (see handlePrePrepare).
func (c *core) window() uint64 { return c.lowWM + 2*uint64(c.cfg.Window) }

func (c *core) entry(seq uint64) *entry {
	e, ok := c.log[seq]
	if !ok {
		e = &entry{seq: seq}
		c.log[seq] = e
	}
	return e
}

// frame routes one checked frame to its handler.
func (c *core) frame(in *inbound) {
	if in.fallback != nil {
		c.requestSignedVote(in.from, in.fallback)
		return
	}
	switch in.tag {
	case tagPrePrepare:
		c.handlePrePrepare(in.from, in.msg.(*prePrepare), in.raw, in.valErr, in.validated)
	case tagPrepare, tagCommit:
		c.handleVote(in)
	case tagCheckpoint:
		c.handleCheckpoint(in.from, in.msg.(*checkpointMsg), in.raw)
	case tagViewChange:
		c.handleViewChange(in.from, in.msg.(*viewChange), in.raw, in.vcOK)
	case tagNewView:
		c.handleNewView(in.from, in.msg.(*newView), in.nv, in.env)
	case tagStatusRequest:
		c.handleStatusRequest(in.from, in.msg.(*statusRequest))
	case tagStatusReply:
		c.handleStatusReply(in.msg.(*statusReply), in.sv)
	case tagVoteRequest:
		c.handleVoteRequest(in.from, in.msg.(*voteRequest))
	case tagSuspicion:
		c.handleSuspicion(in.from, in.msg.(*suspicion))
	}
}

func (c *core) order(payload []byte, d crypto.Digest) {
	switch c.seen[d] {
	case reqCommitted, reqDelivered:
		return
	case reqQueued, reqInflight:
		// Known but uncommitted: make sure the fault-detection clock
		// covers it (it may have been requeued by a view change).
		c.pending.arm(d, c.now)
		return
	}
	c.seen[d] = reqQueued
	c.pending.arm(d, c.now)
	c.queue = append(c.queue, queuedReq{payload: payload, digest: d})
	c.maybePropose(false)
}

// gc forgets delivered batches entirely below before. Watermark
// advancement itself is driven by the checkpoint protocol; GC only
// prunes payload memory sooner.
func (c *core) gc(before ids.SeqNr) {
	for seq, e := range c.log {
		if e.delivered && e.globalEnd < uint64(before) && seq <= c.lowWM {
			delete(c.log, seq)
		}
	}
}

// --- check queries --------------------------------------------------------
//
// A frame's check asks these, under Replica's lock, before it spends
// public-key work on the frame. They change no protocol state, and a
// stale answer only costs a drop or a verification the handler then
// discards.

// voteStillCounts asks, before a signed prepare or commit is verified,
// whether the core would use a valid vote like it. Not if the handlers'
// staleness checks discard it, and not if the certificate it would
// join is complete: the entry is committed, or prepared with a
// transferable proof — so MAC mode keeps every signed re-vote of the
// proof-upgrade round until the proof it rebuilds is whole. Votes
// the core holds for a later view, and votes far enough ahead to
// trigger a status request, go on to be verified.
func (c *core) voteStillCounts(from ids.NodeID, msg wire.Message) bool {
	switch m := msg.(type) {
	case *prepare:
		if c.votedAhead(m.View, m.Seq) || m.Seq > c.window() {
			return true
		}
		if c.stalePrepare(from, m, true) {
			return false
		}
		e, ok := c.log[m.Seq]
		return !ok || !e.prepared || !c.transferableProof(e)
	case *commit:
		if c.votedAhead(m.View, m.Seq) || m.Seq > c.window() {
			return true
		}
		if c.staleCommit(from, m) {
			return false
		}
		e, ok := c.log[m.Seq]
		return !ok || !e.committed
	}
	return true
}

// wouldAcceptPrePrepare mirrors handlePrePrepare's cheap drop conditions
// so payload validation is only paid for pre-prepares that stand a
// chance of being installed.
func (c *core) wouldAcceptPrePrepare(from ids.NodeID, pp *prePrepare) bool {
	if c.inVC || pp.View != c.view || from != c.cfg.leaderOf(pp.View) {
		return false
	}
	if pp.Seq <= c.lowWM || pp.Seq > c.window() || pp.Seq < c.nextDeliver {
		return false
	}
	e, ok := c.log[pp.Seq]
	return !ok || !e.havePP
}

// staleViewChange reports whether a view-change frame is already
// irrelevant — an old target view, or a duplicate vote from its sender.
// Both are stable once true (the view never regresses, and a recorded
// vote outlives its target), so skipping verification for them never
// drops a message the core would have used.
func (c *core) staleViewChange(from ids.NodeID, vc *viewChange) bool {
	if vc.NewView <= c.view {
		return true
	}
	return c.viewChanges.Voted(vc.NewView, from) != nil
}

// staleNewView reports whether a new-view frame targets a view at or
// below the current one (stable once true; see staleViewChange).
func (c *core) staleNewView(nv *newView) bool { return nv.View <= c.view }

// sentCommitMatches reports whether this replica really multicast the
// given commit, authenticating a relayed copy of its own vote against
// local state.
func (c *core) sentCommitMatches(cm *commit) bool {
	e, ok := c.log[cm.Seq]
	return ok && e.sentCommit && e.view == cm.View && e.digest == cm.Digest
}

// votedAhead reports whether a vote is for a view this replica has not
// installed yet and a sequence number it could be voting on: the votes
// handleVote holds.
func (c *core) votedAhead(view, seq uint64) bool {
	return view > c.view && seq > c.lowWM && seq <= c.window()
}

// --- proposing ----------------------------------------------------------

// maybePropose drains the request queue into batches while the replica
// leads, the pipeline window has room, and takeBatch yields one: a full
// batch, or a partial one when force is set or nothing is in flight.
func (c *core) maybePropose(force bool) {
	if c.cfg.leaderOf(c.view) != c.me || c.inVC {
		return
	}
	for len(c.queue) > 0 && c.nextSeq <= c.lowWM+uint64(c.cfg.Window) {
		batch := c.takeBatch(force)
		if batch == nil {
			return
		}
		c.propose(batch)
	}
}

// takeBatch pops up to BatchSize still-queued payloads off the queue
// head. A full batch is always taken. A partial one is taken when force
// is set or when the leader has no instance in flight: waiting only buys
// a fuller batch while something else is keeping the group busy, and an
// idle leader that waits adds BatchDelay to every request of a lightly
// loaded system. Otherwise it returns nil, leaving the queue untouched
// and the flush armed; every delivery comes back here, so the wait ends
// with the last in-flight instance at the latest. Consuming from the
// head — rather than rewriting the whole queue — keeps each proposal
// O(batch), not O(queued): under saturation the queue holds thousands of
// requests and rewriting it per batch was a measurable share of the hot
// path.
func (c *core) takeBatch(force bool) []queuedReq {
	// Count before allocating: most calls at a loaded leader end in
	// "not yet", and those must not cost a batch-sized slice each.
	n, end := 0, 0
	for ; end < len(c.queue) && n < c.cfg.BatchSize; end++ {
		if c.seen[c.queue[end].digest] == reqQueued {
			n++
		}
	}
	idle := c.nextSeq <= c.nextDeliver
	if n < c.cfg.BatchSize && !force && !idle {
		if n > 0 && c.flushAt.IsZero() {
			c.flushAt = c.now.Add(c.cfg.BatchDelay)
		}
		return nil
	}
	var batch []queuedReq
	if n > 0 {
		batch = make([]queuedReq, 0, n)
		for _, q := range c.queue[:end] {
			if c.seen[q.digest] == reqQueued {
				batch = append(batch, q)
			} // else delivered or already in flight; drop silently
		}
	}
	c.popQueue(end)
	return batch
}

// trimQueue drops the queue's head prefix of entries that are no longer
// reqQueued, the rule takeBatch applies to what it pops. Followers never
// take batches, so without this after every delivery each payload they
// were asked to Order would stay reachable from their queue for good. An
// entry in flight may go too: its payload is in the log, and a view
// change requeues it from there.
func (c *core) trimQueue() {
	n := 0
	for n < len(c.queue) && c.seen[c.queue[n].digest] != reqQueued {
		n++
	}
	c.popQueue(n)
}

// popQueue releases the queue's first n entries before advancing the
// slice offset: the entries behind the offset would otherwise keep their
// payload slices reachable until a capacity-exceeding append happens to
// reallocate the backing array.
func (c *core) popQueue(n int) {
	clear(c.queue[:n])
	c.queue = c.queue[n:]
	if len(c.queue) == 0 {
		c.queue = nil
	}
}

func (c *core) propose(batch []queuedReq) {
	payloads := make([][]byte, len(batch))
	digests := make([]crypto.Digest, len(batch))
	for i, q := range batch {
		payloads[i] = q.payload
		digests[i] = q.digest
		c.seen[q.digest] = reqInflight
	}
	if c.cfg.BatchOccupancy != nil {
		c.cfg.BatchOccupancy.Record(len(payloads))
	}
	seq := c.nextSeq
	c.nextSeq++
	pp := &prePrepare{View: c.view, Seq: seq, Payloads: payloads}
	env, raw := c.seal(tagPrePrepare, pp)

	e := c.entry(seq)
	e.view = c.view
	e.digest = batchDigestOf(digests)
	e.payloads = payloads
	e.pdigests = digests
	e.havePP = true
	e.ppRaw = raw
	c.multicast(env)
}

// --- normal case --------------------------------------------------------

func (c *core) handlePrePrepare(from ids.NodeID, pp *prePrepare, raw signedRaw, valErr error, validated bool) {
	if pp.Seq > c.window() {
		c.maybeRequestStatus()
		return
	}
	if c.inVC || pp.View != c.view || from != c.cfg.leaderOf(pp.View) {
		return
	}
	// Accept up to twice the proposal window: our own watermark may
	// trail the leader's by a checkpoint round, and refusing otherwise
	// valid proposals would force needless state transfer. The leader
	// proposes only within one window, so log growth stays bounded.
	if pp.Seq <= c.lowWM || pp.Seq < c.nextDeliver {
		return
	}
	e := c.entry(pp.Seq)
	if e.havePP {
		return // first pre-prepare for this view/seq wins
	}
	if valErr != nil {
		return // refuse to endorse an invalid payload (A-Validity,
		// checked with the frame)
	}
	if !validated && from != c.me && c.cfg.Validate != nil {
		// The check skipped validation because the frame looked
		// droppable when it asked; the state moved in its favor, so
		// validate inline (rare: a racing watermark or view install).
		for _, p := range pp.Payloads {
			if err := c.cfg.Validate(p); err != nil {
				return
			}
		}
	}
	digests := payloadDigests(pp.Payloads)
	e.view = pp.View
	e.digest = batchDigestOf(digests)
	e.payloads = pp.Payloads
	e.pdigests = digests
	e.havePP = true
	e.ppRaw = raw
	for _, d := range digests {
		if c.seen[d] < reqCommitted {
			c.seen[d] = reqInflight
		}
	}
	if from != c.me && !e.sentPrepare {
		e.sentPrepare = true
		c.authMulticast(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest}, false)
	}
	c.checkPrepared(e)
	c.checkCommitted(e)
}

// handleVote routes a prepare or commit. A vote for a view this replica
// has not installed yet is held until it has: peers that install a view
// first vote in it at once, their votes travel on other links than the
// leader's new-view message, and nothing ever resends a vote — with f
// replicas down, one vote dropped for arriving early stalls the instance
// until the next view change. A sender may have at most a prepare and a
// commit held for each sequence number it could be voting on; beyond
// that its votes are dropped as before.
func (c *core) handleVote(in *inbound) {
	p, _ := in.msg.(*prepare)
	cm, _ := in.msg.(*commit)
	var view, seq uint64
	if p != nil {
		view, seq = p.View, p.Seq
	} else {
		view, seq = cm.View, cm.Seq
	}
	if c.votedAhead(view, seq) {
		if held := c.heldVotes[in.from]; len(held) < 4*c.cfg.Window {
			if c.heldVotes == nil {
				c.heldVotes = make(map[ids.NodeID][]*inbound)
			}
			c.heldVotes[in.from] = append(held, in)
		}
		return
	}
	if p != nil {
		c.handlePrepare(in.from, p, in.raw)
	} else {
		c.handleCommit(in.from, cm, in.raw)
	}
}

// releaseHeldVotes re-routes the held votes after a view install, each
// sender's in arrival order: those for the installed view reach their
// handlers, those for a later one are held again.
func (c *core) releaseHeldVotes() {
	held := c.heldVotes
	c.heldVotes = nil
	for _, votes := range held {
		for _, in := range votes {
			c.handleVote(in)
		}
	}
}

func (c *core) handlePrepare(from ids.NodeID, p *prepare, raw signedRaw) {
	if p.Seq > c.window() {
		c.maybeRequestStatus()
		return
	}
	if c.stalePrepare(from, p, raw.transferable()) {
		return
	}
	e := c.entry(p.Seq)
	if v := c.prepares.Voted(p.Seq, from); v != nil {
		v.Val = raw // a signed re-vote upgrades the MAC vote it repeats
	} else {
		c.prepares.Add(p.Seq, from, voteKey{view: p.View, digest: p.Digest}, raw)
	}
	c.checkPrepared(e)
}

// stalePrepare reports whether a prepare from `from` is to be discarded:
// below the watermark, outside what its authentication kind may vote on,
// from the proposer, or a repeat. Shared by the handler and by
// voteStillCounts, which asks before the signature is checked. The
// handler checks the window first.
func (c *core) stalePrepare(from ids.NodeID, p *prepare, signed bool) bool {
	if p.Seq <= c.lowWM {
		return true
	}
	if from == c.cfg.leaderOf(p.View) {
		return true // the proposer's pre-prepare is its prepare vote
	}
	e, ok := c.log[p.Seq]
	if signed && ok && e.havePP {
		// Signed votes — re-votes from the proof-upgrade round or
		// fallback answers — bind to the entry they certify rather
		// than the live view, and are accepted even for delivered
		// batches still in the log: their prepared proofs may be
		// needed by the next view change.
		if p.View != e.view {
			return true
		}
	} else if c.inVC || p.View != c.view || p.Seq < c.nextDeliver {
		return true // MAC votes serve only the live view's fast path
	}
	// One vote per node, except that a signed re-vote for the same
	// (view, digest) upgrades a MAC vote into a transferable one.
	cur := c.prepares.Voted(p.Seq, from)
	return cur != nil && (!signed || cur.Val.transferable() || cur.Key != voteKey{view: p.View, digest: p.Digest})
}

// checkPrepared prepares e once its prepares, with the proposer's
// pre-prepare as the proposer's vote, reach a quorum.
func (c *core) checkPrepared(e *entry) {
	if !e.havePP {
		return
	}
	if !e.prepared {
		if !c.prepares.Reached(e.seq, e.key(), c.cfg.leaderOf(e.view)) {
			return
		}
		e.prepared = true
		if !e.sentCommit {
			e.sentCommit = true
			c.authMulticast(tagCommit, &commit{View: e.view, Seq: e.seq, Digest: e.digest}, false)
		}
		c.checkCommitted(e)
	}
	if c.inVC && !c.vcSent {
		// A late signed re-vote may have completed the transferable
		// proofs the pending view-change message is holding for.
		c.maybeEmitViewChange()
	}
}

// handleVoteRequest answers a peer's request to reissue one of this
// replica's normal-case votes as a signed message (the MAC fast path's
// fallback). The reply is unicast: only the requester saw the
// unverifiable frame.
func (c *core) handleVoteRequest(from ids.NodeID, vr *voteRequest) {
	e, ok := c.log[vr.Seq]
	if !ok || !e.havePP || e.view != vr.View {
		return
	}
	if c.now.Sub(c.voteAnsAt[from]) < 100*time.Millisecond {
		return // replay protection: bounded signing work per peer
	}
	c.voteAnsAt[from] = c.now
	switch vr.Kind {
	case voteKindPrepare:
		if !e.sentPrepare || c.me == c.cfg.leaderOf(e.view) {
			return
		}
		env, _ := c.seal(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest})
		c.send(from, env)
	case voteKindCommit:
		if !e.sentCommit {
			return
		}
		env, _ := c.seal(tagCommit, &commit{View: e.view, Seq: e.seq, Digest: e.digest})
		c.send(from, env)
	}
}

// requestSignedVote asks from to reissue a vote as a signed message,
// rate limited per peer so a flood of garbled frames cannot buy signing
// work.
func (c *core) requestSignedVote(from ids.NodeID, req *voteRequest) {
	if from == c.me || c.now.Sub(c.voteReqAt[from]) < 200*time.Millisecond {
		return
	}
	c.voteReqAt[from] = c.now
	env, _ := c.seal(tagVoteRequest, req)
	c.send(from, env)
}

func (c *core) handleCommit(from ids.NodeID, cm *commit, raw signedRaw) {
	if cm.Seq > c.window() {
		c.maybeRequestStatus()
		return
	}
	if c.staleCommit(from, cm) {
		return
	}
	e := c.entry(cm.Seq)
	c.commits.Add(cm.Seq, from, voteKey{view: cm.View, digest: cm.Digest}, raw)
	c.checkCommitted(e)
}

// staleCommit reports whether a commit from `from` is to be discarded:
// outside the live view, below what is still open, or a repeat. Shared
// by the handler and by voteStillCounts.
func (c *core) staleCommit(from ids.NodeID, cm *commit) bool {
	return c.inVC || cm.View != c.view || cm.Seq <= c.lowWM || cm.Seq < c.nextDeliver ||
		c.commits.Voted(cm.Seq, from) != nil
}

func (c *core) checkCommitted(e *entry) {
	if e.committed || !e.havePP || !c.commits.Reached(e.seq, e.key()) {
		return
	}
	e.committed = true
	c.stopClock(e)
	c.notify()
}

// stopClock stops the fault-detection clock for a batch that just
// committed here: what it still waits for — its turn at Deliver, behind
// the commit channel's window — is not the leader's to answer for. The
// oldest wait among its payloads that this replica Ordered is the
// batch's one latency sample, and its payloads count towards the
// slowness rule's commit rate.
func (c *core) stopClock(e *entry) {
	c.slow.commit(c.now, len(e.payloads))
	var oldest time.Duration
	sampled := false
	for _, d := range e.payloadDigests() {
		if c.seen[d] < reqCommitted {
			c.seen[d] = reqCommitted // a late Order must not re-arm it
		}
		if w, ok := c.pending.stop(d, c.now); ok {
			oldest, sampled = max(oldest, w), true
		}
	}
	if sampled {
		c.lat.observe(oldest)
	}
}

// --- delivery -----------------------------------------------------------

// take hands the next committed batch up, or performs a pending
// catch-up jump when no committed batch can still be delivered in
// order. A batch counts as delivered — nextDeliver, the chain and the
// checkpoint move — only when the delivery goroutine takes it, so a
// Deliver callback blocked on its window holds the watermark back.
func (c *core) take() {
	e, ok := c.log[c.nextDeliver]
	if !ok || !e.committed || e.delivered {
		if j := c.pendingJump; j != nil {
			c.pendingJump = nil
			c.performJump(j)
		}
		return
	}
	e.delivered = true
	c.tookAt = c.now
	e.globalStart = c.nextGlobal
	e.globalEnd = c.nextGlobal + uint64(len(e.payloads)) - 1
	c.nextDeliver++
	c.nextGlobal += uint64(len(e.payloads))
	c.chain = chainDigest(c.chain, e.digest)
	for _, d := range e.payloadDigests() {
		c.seen[d] = reqDelivered
	}
	c.curTimeout = 0 // progress: reset backoff

	// One batch per instance, null batches included: the layer above
	// keys its commit-channel positions on batch sequence numbers, so
	// even an empty decision must be announced.
	c.out = append(c.out, action{kind: actDeliver, batch: consensus.Batch{
		Seq:      e.seq,
		Start:    ids.SeqNr(e.globalStart),
		Payloads: e.payloads,
	}})
	if e.seq%uint64(c.cfg.CheckpointInterval) == 0 {
		// Checkpoints stay signed in both modes: a quorum of them is a
		// stable-checkpoint certificate that travels inside view-change
		// messages and status replies.
		c.authMulticast(tagCheckpoint, &checkpointMsg{BatchSeq: e.seq, GlobalSeq: c.nextGlobal - 1, Chain: c.chain}, true)
	}
	c.trimQueue()
	// With this instance gone the leader may be idle: what queued up
	// behind it leaves now, not when the flush comes due.
	c.maybePropose(false)
}

// chainDigest extends the delivery chain hash by one batch digest.
func chainDigest(prev, batch crypto.Digest) crypto.Digest {
	var buf [2 * crypto.DigestSize]byte
	copy(buf[:crypto.DigestSize], prev[:])
	copy(buf[crypto.DigestSize:], batch[:])
	return crypto.Hash(buf[:])
}

// --- internal checkpoints & catch-up -------------------------------------

func (c *core) handleCheckpoint(from ids.NodeID, cp *checkpointMsg, raw signedRaw) {
	if cp.BatchSeq > c.window() {
		c.maybeRequestStatus()
		return
	}
	key := ckptKey{global: cp.GlobalSeq, chain: cp.Chain}
	if cp.BatchSeq <= c.lowWM || !c.checkpoints.Add(cp.BatchSeq, from, key, raw) ||
		!c.checkpoints.Reached(cp.BatchSeq, key) {
		return
	}
	var proof []signedRaw
	for _, raw := range c.checkpoints.Matching(cp.BatchSeq, key) {
		proof = append(proof, raw)
	}
	c.stabilize(cp.BatchSeq, cp.GlobalSeq, cp.Chain, proof)
}

// stabilize installs a stable checkpoint: the watermark advances and
// fully processed log entries are pruned. If this replica has fallen
// behind, a jump target is recorded; evTake performs the jump once no
// locally committed batch can still be delivered in order (A-Order
// permits the resulting gap as garbage collection; the layer above
// repairs its state via its own checkpoints, as Spider does).
func (c *core) stabilize(batch, global uint64, chain crypto.Digest, proof []signedRaw) {
	if batch <= c.lowWM {
		return
	}
	c.lowWM = batch
	c.stableProof = proof
	c.stableGlobal = global
	c.stableChain = chain
	if c.nextDeliver <= batch {
		if c.pendingJump == nil || batch > c.pendingJump.batch {
			c.pendingJump = &jumpTarget{batch: batch, global: global, chain: chain}
		}
	}
	if c.nextSeq <= batch {
		c.nextSeq = batch + 1
	}
	// Delivered payloads are forgotten one checkpoint late: an Order of
	// a payload racing its own delivery must still find it delivered,
	// not re-arm the fault-detection timer for a payload no leader will
	// propose again.
	for _, d := range c.retired {
		delete(c.seen, d)
	}
	c.retired = c.retired[:0]
	for seq, e := range c.log {
		// Keep committed-but-undelivered entries: delivery still needs
		// their payloads.
		if seq <= batch && (e.delivered || !e.committed) {
			for _, d := range e.payloadDigests() {
				if e.delivered || c.seen[d] == reqDelivered {
					c.retired = append(c.retired, d)
				}
			}
			delete(c.log, seq)
		}
	}
	c.prepares.DropBelow(batch + 1)
	c.commits.DropBelow(batch + 1)
	c.checkpoints.DropBelow(batch + 1)
	c.notify()
	c.maybePropose(false)
}

// performJump fast-forwards delivery past garbage-collected history.
// Only evTake calls it, so delivery order and the global sequence
// counter stay consistent.
func (c *core) performJump(j *jumpTarget) {
	if j.batch < c.nextDeliver {
		return
	}
	for seq, e := range c.log {
		if seq > j.batch {
			continue
		}
		for _, d := range e.payloadDigests() {
			c.seen[d] = reqDelivered
		}
		delete(c.log, seq)
	}
	c.nextDeliver = j.batch + 1
	c.nextGlobal = j.global + 1
	c.chain = j.chain
	// History is gone: this replica can no longer tell whether its
	// pending payloads were ordered inside the window it skipped, so
	// their fault-detection clocks are stopped. Censorship detection
	// is unharmed: the 2f other correct replicas keep their clocks
	// (only f replicas can be this far behind in a live system), and
	// upstream retries re-arm them here via Order.
	c.pending.reset()
	// Jumping means the group made progress without us; if we were
	// sulking in a lonely view change, rejoin normal operation.
	if c.inVC {
		c.inVC = false
		c.vcTarget = c.view
		c.curTimeout = 0
	}
}

// maybeRequestStatus asks peers for catch-up material, rate limited to
// one request per second.
func (c *core) maybeRequestStatus() {
	if c.now.Sub(c.lastStatusReq) < time.Second {
		return
	}
	c.lastStatusReq = c.now
	env, _ := c.seal(tagStatusRequest, &statusRequest{NextDeliver: c.nextDeliver})
	for _, m := range c.cfg.Group.Members {
		if m != c.me {
			c.send(m, env)
		}
	}
}

// maxStatusEntries bounds how many commit certificates one status reply
// carries.
const maxStatusEntries = 64

func (c *core) handleStatusRequest(from ids.NodeID, req *statusRequest) {
	reply := &statusReply{
		StableBatch:  c.lowWM,
		StableGlobal: c.stableGlobal,
		StableChain:  c.stableChain,
		StableProof:  c.stableProof,
		NewViewEnv:   c.lastNewViewEnv,
	}
	start := max(req.NextDeliver, c.lowWM+1)
	seqs := make([]uint64, 0, len(c.log))
	for seq, e := range c.log {
		if seq >= start && e.committed && e.havePP {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs[:min(len(seqs), maxStatusEntries)] {
		e := c.log[seq]
		var commits []signedRaw
		for _, raw := range c.commits.Matching(seq, e.key()) {
			commits = append(commits, raw)
		}
		reply.Entries = append(reply.Entries, committedEntry{PrePrepare: e.ppRaw, Commits: commits})
	}
	env, _ := c.seal(tagStatusReply, reply)
	c.send(from, env)
}

func (c *core) handleStatusReply(reply *statusReply, v *statusVerdict) {
	if v == nil {
		return
	}
	if v.nvMsg != nil {
		// A relayed new-view envelope lets a replica stuck in an old
		// view adopt the group's current one; it is self-certifying
		// (it embeds the signed view-change quorum) and was verified
		// with the reply like a directly received one.
		c.handleNewView(v.nvFrom, v.nvMsg, v.nv, reply.NewViewEnv)
	}
	if reply.StableBatch > c.lowWM && v.stableOK {
		c.stabilize(reply.StableBatch, reply.StableGlobal, reply.StableChain, reply.StableProof)
	}
	for i := range reply.Entries {
		c.installCommittedEntry(&reply.Entries[i], &v.entries[i])
	}
}

// installCommittedEntry installs a batch whose commit certificate was
// already verified with its frame, re-checking only the state-dependent
// window conditions.
func (c *core) installCommittedEntry(ce *committedEntry, v *commitCertVerdict) {
	if !v.ok {
		return
	}
	pp := v.pp
	if pp.Seq < c.nextDeliver || pp.Seq <= c.lowWM {
		return
	}
	e := c.entry(pp.Seq)
	if e.committed {
		return
	}
	e.view = pp.View
	e.digest = v.digest
	e.payloads = pp.Payloads
	e.pdigests = nil // recomputed lazily for the installed payloads
	e.havePP = true
	e.ppRaw = ce.PrePrepare
	e.prepared = true
	e.committed = true
	c.stopClock(e)
	c.notify()
}

// --- timers ---------------------------------------------------------------

// tickEvery is the period of the core's periodic checks.
func (c *core) tickEvery() time.Duration {
	return max(c.cfg.RequestTimeout/8, 5*time.Millisecond)
}

// tick proposes a partial batch whose flush came due, suspects the
// leader once the oldest pending payload has waited out the timeout,
// and runs the periodic checks, the slowness rule among them.
func (c *core) tick() {
	if !c.flushAt.IsZero() && !c.now.Before(c.flushAt) {
		c.flushAt = time.Time{}
		c.maybePropose(true)
	}
	periodic := !c.now.Before(c.nextTick)
	if periodic {
		// Ticks keep their phase, as a ticker's do: a late one does not
		// delay the next, and whole intervals missed are skipped. The
		// first tick sets the phase.
		every := c.tickEvery()
		if c.nextTick.IsZero() {
			c.nextTick = c.now
		}
		c.nextTick = c.nextTick.Add((c.now.Sub(c.nextTick)/every + 1) * every)

		// Stuck detection: if delivery has not advanced for a while and
		// there is evidence the group moved on without us (commit votes
		// we cannot use, committed batches beyond a gap, or a watermark
		// ahead of delivery), ask peers for the missing material. A
		// missed message must trigger state transfer, not a view change.
		if c.nextDeliver != c.progressSeq {
			c.progressSeq = c.nextDeliver
			c.progressAt = c.now
		} else if c.now.Sub(c.progressAt) > c.timeout()/4 && c.deliveryLooksStuck() {
			c.maybeRequestStatus()
		}
	}
	if c.inVC {
		if periodic && !c.vcSent {
			// The proof-upgrade hold may have expired: emit the
			// view-change message with whatever proofs were rebuilt.
			c.maybeEmitViewChange()
		}
		if periodic && c.now.After(c.vcDeadline) {
			c.startViewChange(c.vcTarget + 1)
		}
		return
	}
	var wait time.Duration
	at, waiting := c.suspectAt()
	if waiting && (periodic || !c.now.Before(at)) {
		oldest, _ := c.pending.oldest()
		if c.now.Sub(oldest) >= c.cfg.RequestTimeout {
			// Nobody waits longer, alone or not.
			c.startViewChange(c.view + 1)
			return
		}
		if wait = c.now.Sub(c.detectFrom(oldest)); wait >= c.timeout() && !c.suspecting() {
			c.suspect() // the view change waits for f+1 (detector.go)
		}
	}
	if periodic {
		c.judgeSpeed(waiting, wait)
	}
}

// deliveryLooksStuck reports whether the blocked delivery head is likely
// waiting for a message this replica missed rather than for the protocol
// to advance.
func (c *core) deliveryLooksStuck() bool {
	if c.nextDeliver <= c.lowWM {
		return true
	}
	if e, ok := c.log[c.nextDeliver]; ok {
		if e.committed {
			return false // waiting for Deliver, not for a message
		}
		commits := len(c.commits.At(c.nextDeliver))
		if !e.havePP && commits > 0 {
			return true // peers committed a batch we never saw proposed
		}
		if !e.committed && commits > c.cfg.Group.F {
			return true // a correct replica already committed it
		}
	}
	for seq, e := range c.log {
		if seq > c.nextDeliver && e.committed {
			return true // gap below committed batches
		}
	}
	return false
}
