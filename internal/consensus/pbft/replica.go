package pbft

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/transport"
	"spider/internal/tune"
	"spider/internal/wire"
)

// reqState tracks where a payload known to this replica currently is.
type reqState uint8

const (
	reqQueued    reqState = iota + 1 // waiting to be proposed
	reqInflight                      // part of a proposed batch
	reqDelivered                     // delivered to the application
)

// voteRaw is one stored prepare/commit vote.
type voteRaw struct {
	view   uint64
	digest crypto.Digest
	raw    signedRaw
}

// entry is the log slot for one batch sequence number.
type entry struct {
	seq      uint64
	view     uint64
	digest   crypto.Digest
	payloads [][]byte
	pdigests []crypto.Digest // per-payload digests, cached (see payloadDigestsLocked)
	havePP   bool
	ppRaw    signedRaw

	prepareVotes map[ids.NodeID]voteRaw
	commitVotes  map[ids.NodeID]voteRaw

	prepared     bool
	preparedRaws []signedRaw // prepare raws matching digest, snapshotted when prepared
	committed    bool
	sentPrepare  bool
	sentCommit   bool
	delivered    bool
	globalStart  uint64 // first global sequence number (set at delivery)
	globalEnd    uint64 // last global sequence number (set at delivery)
}

func newEntry(seq uint64) *entry {
	return &entry{
		seq:          seq,
		prepareVotes: make(map[ids.NodeID]voteRaw),
		commitVotes:  make(map[ids.NodeID]voteRaw),
	}
}

// payloadDigestsLocked returns the entry's per-payload digests,
// computing and caching them on first use (entries installed via
// commit certificates arrive without the cache).
func (e *entry) payloadDigestsLocked() []crypto.Digest {
	if e.pdigests == nil && len(e.payloads) > 0 {
		e.pdigests = payloadDigests(e.payloads)
	}
	return e.pdigests
}

type queuedReq struct {
	payload []byte
	digest  crypto.Digest
}

type ckptVote struct {
	global uint64
	chain  crypto.Digest
	raw    signedRaw
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

// Replica is one PBFT group member implementing consensus.Agreement.
type Replica struct {
	cfg Config
	me  ids.NodeID

	mu      sync.Mutex
	cond    *sync.Cond
	started bool
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup

	view       uint64
	inVC       bool
	vcTarget   uint64
	vcDeadline time.Time
	curTimeout time.Duration

	nextSeq uint64 // leader: next batch sequence to propose
	log     map[uint64]*entry
	lowWM   uint64 // last stable (garbage-collected) batch

	nextDeliver uint64        // next batch to hand to the delivery loop
	nextGlobal  uint64        // next global sequence number to assign
	chain       crypto.Digest // rolling digest of delivered batches

	queue        []queuedReq
	seen         map[crypto.Digest]reqState
	pendingSince map[crypto.Digest]time.Time

	ckptVotes    map[uint64]map[ids.NodeID]ckptVote
	stableProof  []signedRaw
	stableGlobal uint64
	stableChain  crypto.Digest
	pendingJump  *jumpTarget // catch-up target, executed by the delivery loop

	vcs           map[uint64]map[ids.NodeID]vcVote
	heldVotes     map[ids.NodeID][]*inbound // early votes per sender, see handleVoteLocked
	lastStatusReq time.Time
	batchTimerOn  bool
	batchTimer    *time.Timer // live partial-batch flush timer, canceled by Stop

	// tuner, when AdaptiveBatching is configured, owns the effective
	// batch size and flush delay. It is consulted and updated only
	// under r.mu at points the hot path already holds it, so the
	// adaptive mode adds no locking. Nil when the static knobs rule.
	tuner *tune.BatchController

	// mon, when SuspectSlowLeader is configured, watches the current
	// leader's delivery throughput and latency and accuses it via a
	// proactive view change when it gray-fails. Fed and evaluated only
	// under r.mu, like the tuner. Nil when the gate is off.
	mon *monitor

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

	// votersScratch is the reusable vote-tally map handed out by
	// votersLocked (guarded by mu like everything around it).
	votersScratch map[ids.NodeID]bool

	// voteReqAt rate-limits signed-vote fallback requests per peer;
	// voteAnsAt rate-limits the answers, so a replayed (validly
	// signed) voteRequest envelope cannot buy unbounded signing work
	// under the replica lock.
	voteReqAt map[ids.NodeID]time.Time
	voteAnsAt map[ids.NodeID]time.Time

	// Delivery progress tracking for stuck detection.
	progressSeq uint64
	progressAt  time.Time

	// lastNewViewEnv is the envelope that installed the current view,
	// relayed to laggards in status replies.
	lastNewViewEnv []byte

	// Crypto pipeline state: one inbound lane per group member keeps
	// per-sender FIFO delivery while verification fans out across the
	// worker pool, and signLane orders this replica's own outbound
	// prepare/commit/checkpoint messages, whose signing also happens
	// off the replica lock.
	recvLanes map[ids.NodeID]*crypto.Lane
	signLane  *crypto.Lane
	stopFlag  atomic.Bool

	// Authenticators: sigAuth signs (always used for messages that may
	// land in proofs), macAuth produces/checks MAC vectors over the
	// group, and normalAuth is whichever of the two the configured
	// NormalCaseAuth selects for prepare/commit.
	sigAuth    crypto.GroupAuthenticator
	macAuth    crypto.GroupAuthenticator
	normalAuth crypto.GroupAuthenticator

	// dispatchHook, when set by tests, observes every verified frame
	// in dispatch order (called with r.mu held).
	dispatchHook func(from ids.NodeID, tag wire.TypeTag, msg wire.Message, raw *signedRaw)
}

var _ consensus.Agreement = (*Replica)(nil)

// New creates a PBFT replica. The replica registers its transport
// handler immediately (inbound traffic is buffered by the transport),
// but only processes and emits messages after Start.
func New(cfg Config) (*Replica, error) {
	// The classic size bound applies only when no custom quorum
	// policy overrides it (weighted deployments size differently), so
	// check before defaults install the counting policy.
	if cfg.Policy == nil && len(cfg.Group.Members) < 3*cfg.Group.F+1 {
		return nil, fmt.Errorf("pbft: group size %d cannot tolerate f=%d", len(cfg.Group.Members), cfg.Group.F)
	}
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:          cfg,
		me:           cfg.Suite.Node(),
		view:         cfg.StartView,
		nextSeq:      1,
		nextDeliver:  1,
		nextGlobal:   1,
		log:          make(map[uint64]*entry),
		seen:         make(map[crypto.Digest]reqState),
		pendingSince: make(map[crypto.Digest]time.Time),
		ckptVotes:    make(map[uint64]map[ids.NodeID]ckptVote),
		vcs:          make(map[uint64]map[ids.NodeID]vcVote),
		curTimeout:   cfg.RequestTimeout,
		done:         make(chan struct{}),
		recvLanes:    make(map[ids.NodeID]*crypto.Lane, len(cfg.Group.Members)),
		voteReqAt:    make(map[ids.NodeID]time.Time),
		voteAnsAt:    make(map[ids.NodeID]time.Time),
	}
	if cfg.AdaptiveBatching {
		r.tuner = tune.NewBatchController(tune.BatchConfig{
			MaxBatch: cfg.BatchSize,
			MaxDelay: cfg.BatchDelay,
			Rate:     cfg.ArrivalRate,
		})
	}
	if cfg.SuspectSlowLeader {
		r.mon = newMonitor(&r.cfg, time.Now())
	}
	for _, m := range cfg.Group.Members {
		r.recvLanes[m] = cfg.Pipeline.NewLane()
	}
	r.signLane = cfg.Pipeline.NewLane()
	r.sigAuth = crypto.NewSignatureAuthenticator(cfg.Suite, crypto.DomainPBFT)
	r.macAuth = crypto.NewMACVectorAuthenticator(cfg.Suite, cfg.Group.Members, crypto.DomainPBFT)
	if cfg.NormalCaseAuth == AuthSignatures {
		r.normalAuth = r.sigAuth
	} else {
		r.normalAuth = r.macAuth
	}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// macMode reports whether normal-case messages use the MAC fast path.
func (r *Replica) macMode() bool { return r.cfg.NormalCaseAuth != AuthSignatures }

// Start implements consensus.Agreement.
func (r *Replica) Start() {
	r.mu.Lock()
	if r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()

	// Batch-capable transports hand a drained run of queued frames to
	// onFrames in one call; others fall back to frame-at-a-time.
	transport.RegisterBatch(r.cfg.Node, r.cfg.Stream, r.onFrames)

	r.wg.Add(2)
	go r.deliveryLoop()
	go r.timerLoop()
}

// Stop implements consensus.Agreement.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.stopFlag.Store(true)
	if r.batchTimer != nil {
		r.batchTimer.Stop()
		r.batchTimer = nil
		r.batchTimerOn = false
	}
	close(r.done)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// View returns the current view number (for tests and diagnostics).
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Leader returns the current view's leader.
func (r *Replica) Leader() ids.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.leaderOf(r.view)
}

// ViewChanges returns how many view changes this replica has entered
// (timeout-driven, join-amplified, or proactive).
func (r *Replica) ViewChanges() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vcCount
}

// Rotations returns how many proactive (gray-failure) rotations this
// replica initiated and the recorded reasons, newest last. Zero and
// nil unless SuspectSlowLeader is on.
func (r *Replica) Rotations() (uint64, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mon == nil {
		return 0, nil
	}
	return r.mon.rotations, append([]string(nil), r.mon.reasons...)
}

// ViewThroughput returns the monitor's per-view delivery rates
// (completed views plus the current one). Nil unless
// SuspectSlowLeader is on.
func (r *Replica) ViewThroughput() []ViewRate {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.mon == nil {
		return nil
	}
	return r.mon.snapshotViewRates(time.Now(), r.view)
}

// Order implements consensus.Agreement.
func (r *Replica) Order(payload []byte) {
	if r.cfg.Validate != nil {
		if err := r.cfg.Validate(payload); err != nil {
			// Refusing invalid payloads here keeps them from arming
			// the fault-detection timer: an unorderable payload must
			// not depose a correct leader.
			return
		}
	}
	d := crypto.Hash(payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	switch r.seen[d] {
	case reqDelivered:
		return
	case reqQueued, reqInflight:
		// Known but undelivered: make sure the fault-detection timer
		// covers it (it may have been requeued by a view change).
		if _, ok := r.pendingSince[d]; !ok {
			r.pendingSince[d] = time.Now()
		}
		return
	}
	r.seen[d] = reqQueued
	r.pendingSince[d] = time.Now()
	r.queue = append(r.queue, queuedReq{payload: payload, digest: d})
	// Only the leader samples arrivals: every group member Orders every
	// request, so an unconditional sample into a shared recorder would
	// overcount offered load by the group size.
	if r.tuner != nil && r.isLeaderLocked() {
		r.tuner.ObserveArrival(time.Now())
	}
	// The gray-failure monitor's arrival window is per-replica private
	// state, so every member records unconditionally.
	if r.mon != nil {
		r.mon.observeArrival(time.Now())
	}
	r.maybeProposeLocked(false)
}

// BatchTarget returns the batch size the replica currently aims for:
// the adaptive controller's target when AdaptiveBatching is on, the
// static BatchSize otherwise. Exposed for tests and figure footnotes.
func (r *Replica) BatchTarget() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batchTargetLocked()
}

func (r *Replica) batchTargetLocked() int {
	if r.tuner != nil {
		return r.tuner.Batch()
	}
	return r.cfg.BatchSize
}

func (r *Replica) batchDelayLocked() time.Duration {
	if r.tuner != nil {
		return r.tuner.Delay()
	}
	return r.cfg.BatchDelay
}

// GC implements consensus.Agreement: delivered batches entirely below
// the given global sequence number may be forgotten. Watermark
// advancement itself is driven by the internal checkpoint protocol;
// GC only prunes payload memory sooner.
func (r *Replica) GC(before ids.SeqNr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for seq, e := range r.log {
		if e.delivered && e.globalEnd < uint64(before) && seq <= r.lowWM {
			delete(r.log, seq)
		}
	}
}

// --- sealing & envelope handling ---------------------------------------

// sealLocked signs a message and returns the envelope bytes to put on
// the wire, plus the raw for proof storage.
func (r *Replica) sealLocked(tag wire.TypeTag, m wire.Marshaler) ([]byte, signedRaw) {
	frame := registry.EncodeFrame(tag, m)
	raw := signedRaw{
		From:  r.me,
		Frame: frame,
		Sig:   r.cfg.Suite.Sign(crypto.DomainPBFT, frame),
	}
	return wire.Encode(&raw), raw
}

// multicastLocked sends envelope bytes to every group member,
// including this replica (self-delivery keeps vote handling uniform).
func (r *Replica) multicastLocked(env []byte) {
	r.cfg.Node.Multicast(r.cfg.Group.Members, r.cfg.Stream, env)
}

// verifyRaw checks an embedded or top-level signed message. Only
// signature-authenticated raws pass: this is the check used wherever a
// raw must be transferable.
func (r *Replica) verifyRaw(raw *signedRaw) error {
	if !r.cfg.Group.Contains(raw.From) {
		return fmt.Errorf("pbft: signer %v not in group", raw.From)
	}
	return r.cfg.Suite.Verify(raw.From, crypto.DomainPBFT, raw.Frame, raw.Sig)
}

// verifyAuthRaw checks a raw of either authentication kind: the
// signature when present (it takes precedence so the raw stays
// transferable), this replica's MAC-vector entry otherwise.
func (r *Replica) verifyAuthRaw(raw *signedRaw) error {
	if !r.cfg.Group.Contains(raw.From) {
		return fmt.Errorf("pbft: sender %v not in group", raw.From)
	}
	if len(raw.Sig) > 0 {
		return r.sigAuth.Verify(raw.From, raw.Frame, raw.Sig, nil)
	}
	if len(raw.MACVec) > 0 {
		return r.macAuth.Verify(raw.From, raw.Frame, nil, raw.MACVec)
	}
	return fmt.Errorf("pbft: unauthenticated frame from %v", raw.From)
}

// inbound carries one verified frame to dispatch, together with
// everything the crypto pipeline precomputed for it off the replica
// lock (payload validation and certificate verdicts).
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
}

// onFrame is the single-frame transport handler for PBFT traffic.
func (r *Replica) onFrame(from ids.NodeID, payload []byte) {
	r.onFrames(from, [][]byte{payload})
}

// onFrames admits a run of frames that arrived back-to-back from one
// peer. It only decodes the envelopes; authentication, frame decoding,
// payload validation and certificate verification run on the crypto
// pipeline so the transport goroutine and the replica lock are never
// blocked on crypto. The per-sender lane guarantees frames of one peer
// reach dispatch in arrival order, and the whole run enters the lane
// as one GoBatch submission so a saturated link pays the pipeline
// queue locking once per drain instead of once per frame.
//
// Cheap acceptance check first, public-key work second: a signed
// prepare or commit is asked about (voteStillCounts) before its
// signature is verified, as pre-prepare validation and view-change and
// new-view evidence are gated further down. A gate only reads replica
// state and can only cause a drop; what reaches dispatch has passed
// the same verification as without it.
func (r *Replica) onFrames(from ids.NodeID, payloads [][]byte) {
	lane := r.recvLanes[from]
	if lane == nil {
		return // not a group member
	}
	jobs := make([]crypto.Job, 0, len(payloads))
	// One backing array for the run's inbound records: a saturated
	// link pays two allocations per drain instead of one per frame.
	ins := make([]inbound, 0, len(payloads))
	for _, payload := range payloads {
		// Zero-copy decode: the envelope's frame, signature and MAC
		// vector alias the transport payload, which the transport
		// contract guarantees is immutable shared data. Vote raws
		// retained in the log therefore pin their frame (and, over
		// tcpnet, its arena chunk) until checkpoint GC — a bounded,
		// documented trade for an allocation-free admission path.
		var raw signedRaw
		if err := wire.DecodeShared(payload, &raw); err != nil {
			continue
		}
		if raw.From != from {
			continue // transport identity must match the claimed sender
		}
		ins = append(ins, inbound{from: from, raw: raw, env: payload})
		in := &ins[len(ins)-1]
		var fallback *voteRequest
		jobs = append(jobs, crypto.Job{
			Compute: func() error {
				var err error
				if in.tag, in.msg, err = registry.DecodeFrameShared(in.raw.Frame); err != nil {
					return err
				}
				if from != r.me {
					// A signed vote whose quorum is in, or which dispatch
					// would discard anyway, is not worth a signature check
					// (a MAC-vector one costs a microsecond and is not
					// asked about). Nothing vouches for the decoded
					// content yet: it is only compared with replica state.
					if len(in.raw.Sig) > 0 && (in.tag == tagPrepare || in.tag == tagCommit) && !r.voteStillCounts(from, in.msg) {
						return errVoteNotNeeded
					}
					if err := r.verifyAuthRaw(&in.raw); err != nil {
						// A bad MAC-vector entry on a normal-case vote gets
						// the fallback treatment: drop the frame but ask the
						// peer for a signed copy, so a correct sender whose
						// vector was corrupted in transit (or a receiver
						// targeted by a selectively garbled vector) recovers
						// instead of stalling the quorum.
						if len(in.raw.Sig) == 0 && len(in.raw.MACVec) > 0 {
							fallback = fallbackRequest(in.raw.Frame)
						}
						return err
					}
				}
				if !in.raw.transferable() && from != r.me && in.tag != tagPrepare && in.tag != tagCommit {
					// MAC vectors authenticate the normal-case fast path
					// only; everything else must stay signed so it can
					// serve in certificates and proofs.
					return fmt.Errorf("pbft: %v from %v must be signed", in.tag, from)
				}
				switch in.tag {
				case tagPrePrepare:
					if from != r.me && r.cfg.Validate != nil {
						// A-Validity runs here too: client-request signature
						// checks are as CPU-bound as the envelope signature
						// and must not run under the replica lock. Gated on
						// the same cheap acceptance checks the handler
						// applies, so duplicate or out-of-window
						// pre-prepares cannot buy batch-sized validation
						// work on the shared pool (the handler falls back to
						// inline validation for the rare frame that becomes
						// acceptable between this check and dispatch).
						if pp := in.msg.(*prePrepare); r.wouldAcceptPrePrepare(from, pp) {
							in.validated = true
							for _, p := range pp.Payloads {
								if err := r.cfg.Validate(p); err != nil {
									in.valErr = err
									break
								}
							}
						}
					}
				case tagStatusReply:
					in.sv = r.verifyStatusReply(in.msg.(*statusReply))
				case tagViewChange:
					// Stale or duplicate view changes are dropped at
					// dispatch anyway; checking first keeps a replayed
					// signed envelope from buying certificate-sized
					// verification work.
					vc := in.msg.(*viewChange)
					in.vcOK = !r.staleViewChange(from, vc) && r.verifyViewChange(vc)
				case tagNewView:
					if nv := in.msg.(*newView); !r.staleNewView(nv) {
						in.nv = r.verifyNewView(from, nv)
					}
				}
				return nil
			},
			Deliver: func(err error) {
				if err != nil {
					if fallback != nil {
						r.requestSignedVote(from, fallback)
					}
					return
				}
				r.dispatch(in)
			},
		})
	}
	lane.GoBatch(jobs)
}

// fallbackRequest builds the signed-copy request for an unverifiable
// MAC-authenticated frame, if the frame decodes to a normal-case vote.
// The decoded content is unauthenticated, so the request carries only
// coordinates; the peer answers from its own state.
func fallbackRequest(frame []byte) *voteRequest {
	tag, msg, err := registry.DecodeFrame(frame)
	if err != nil {
		return nil
	}
	switch m := msg.(type) {
	case *prepare:
		if tag == tagPrepare {
			return &voteRequest{Kind: voteKindPrepare, View: m.View, Seq: m.Seq}
		}
	case *commit:
		if tag == tagCommit {
			return &voteRequest{Kind: voteKindCommit, View: m.View, Seq: m.Seq}
		}
	}
	return nil
}

// requestSignedVote asks from to re-issue a vote as a signed message,
// rate limited per peer so a flood of garbled frames cannot buy
// signing work.
func (r *Replica) requestSignedVote(from ids.NodeID, req *voteRequest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || !r.started || from == r.me {
		return
	}
	if time.Since(r.voteReqAt[from]) < 200*time.Millisecond {
		return
	}
	r.voteReqAt[from] = time.Now()
	env, _ := r.sealLocked(tagVoteRequest, req)
	r.cfg.Node.Send(from, r.cfg.Stream, env)
}

// wouldAcceptPrePrepare mirrors handlePrePrepareLocked's cheap drop
// conditions so payload validation is only paid for pre-prepares that
// stand a chance of being installed.
func (r *Replica) wouldAcceptPrePrepare(from ids.NodeID, pp *prePrepare) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || !r.started || r.inVC || pp.View != r.view || from != r.cfg.leaderOf(pp.View) {
		return false
	}
	if pp.Seq <= r.lowWM || pp.Seq > r.lowWM+2*uint64(r.cfg.Window) || pp.Seq < r.nextDeliver {
		return false
	}
	if e, ok := r.log[pp.Seq]; ok && e.havePP {
		return false
	}
	return true
}

// errVoteNotNeeded drops a signed vote before its signature check.
var errVoteNotNeeded = errors.New("pbft: vote can no longer change anything")

// voteStillCounts asks, before a signed prepare or commit is verified,
// whether dispatch would use a valid vote like it. Not if the handlers'
// staleness checks discard it, and not if the certificate it would
// join is complete: the entry is committed, or prepared with a
// transferable proof — so MAC mode keeps every signed re-vote of the
// proof-upgrade round until the proof it rebuilds is whole. Votes
// dispatch holds for a later view, and commits far enough ahead to
// trigger a status request, go on to be verified. Reads replica state
// under r.mu and changes nothing; called from pipeline compute only.
func (r *Replica) voteStillCounts(from ids.NodeID, msg wire.Message) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || !r.started {
		return false
	}
	switch m := msg.(type) {
	case *prepare:
		if r.votedAheadLocked(m.View, m.Seq) {
			return true
		}
		if r.stalePrepareLocked(from, m, true) {
			return false
		}
		e, ok := r.log[m.Seq]
		return !ok || !e.prepared || !r.transferableProofLocked(e)
	case *commit:
		if r.votedAheadLocked(m.View, m.Seq) || m.Seq > r.lowWM+2*uint64(r.cfg.Window) {
			return true
		}
		if r.staleCommitLocked(from, m) {
			return false
		}
		e, ok := r.log[m.Seq]
		return !ok || !e.committed
	}
	return true
}

// votedAheadLocked reports whether a vote is for a view this replica
// has not installed yet and a sequence number it could be voting on:
// the votes handleVoteLocked holds.
func (r *Replica) votedAheadLocked(view, seq uint64) bool {
	return view > r.view && seq > r.lowWM && seq <= r.lowWM+2*uint64(r.cfg.Window)
}

// dispatch routes one verified frame to its handler.
func (r *Replica) dispatch(in *inbound) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || !r.started {
		return
	}
	if r.dispatchHook != nil {
		r.dispatchHook(in.from, in.tag, in.msg, &in.raw)
	}
	switch in.tag {
	case tagPrePrepare:
		r.handlePrePrepareLocked(in.from, in.msg.(*prePrepare), in.raw, in.valErr, in.validated)
	case tagPrepare, tagCommit:
		r.handleVoteLocked(in)
	case tagCheckpoint:
		r.handleCheckpointLocked(in.from, in.msg.(*checkpointMsg), in.raw)
	case tagViewChange:
		r.handleViewChangeLocked(in.from, in.msg.(*viewChange), in.raw, in.vcOK)
	case tagNewView:
		r.handleNewViewLocked(in.from, in.msg.(*newView), in.nv, in.env)
	case tagStatusRequest:
		r.handleStatusRequestLocked(in.from, in.msg.(*statusRequest))
	case tagStatusReply:
		r.handleStatusReplyLocked(in.msg.(*statusReply), in.sv)
	case tagVoteRequest:
		r.handleVoteRequestLocked(in.from, in.msg.(*voteRequest))
	}
}

// handleVoteLocked routes a verified prepare or commit. A vote for a
// view this replica has not installed yet is held until it has: peers
// that install a view first vote in it at once, their votes travel on
// other links than the leader's new-view message, and nothing ever
// resends a vote — with f replicas down, one vote dropped for arriving
// early stalls the instance until the next view change. A sender may
// have at most a prepare and a commit held for each sequence number it
// could be voting on; beyond that its votes are dropped as before.
func (r *Replica) handleVoteLocked(in *inbound) {
	p, _ := in.msg.(*prepare)
	c, _ := in.msg.(*commit)
	var view, seq uint64
	if p != nil {
		view, seq = p.View, p.Seq
	} else {
		view, seq = c.View, c.Seq
	}
	if r.votedAheadLocked(view, seq) {
		if held := r.heldVotes[in.from]; len(held) < 4*r.cfg.Window {
			if r.heldVotes == nil {
				r.heldVotes = make(map[ids.NodeID][]*inbound)
			}
			r.heldVotes[in.from] = append(held, in)
		}
		return
	}
	if p != nil {
		r.handlePrepareLocked(in.from, p, in.raw)
	} else {
		r.handleCommitLocked(in.from, c, in.raw)
	}
}

// releaseHeldVotesLocked re-routes the held votes after a view install,
// each sender's in arrival order: those for the installed view reach
// their handlers, those for a later one are held again.
func (r *Replica) releaseHeldVotesLocked() {
	held := r.heldVotes
	r.heldVotes = nil
	for _, votes := range held {
		for _, in := range votes {
			r.handleVoteLocked(in)
		}
	}
}

// authMulticastLocked authenticates m with the given authenticator on
// the crypto pipeline and multicasts the envelope once the material is
// ready. The signing lane preserves submission order, so peers observe
// this replica's messages in the order its protocol logic produced
// them even though the crypto happens off the replica lock. Used for
// the high-rate normal-case messages (prepare, commit — signed or
// MAC-vector authenticated per NormalCaseAuth) and for checkpoints
// (always signed, they form certificates); messages whose raws must be
// stored synchronously (pre-prepare, view change, new view) keep
// synchronous sealing.
func (r *Replica) authMulticastLocked(tag wire.TypeTag, m wire.Marshaler, auth crypto.GroupAuthenticator) {
	// The frame is encoded under the lock (m may reference locked
	// state) into a pooled buffer; only the envelope — encoded exactly
	// once for all recipients — is a fresh allocation, because the
	// transport retains it. The pooled buffer is released on the
	// signing lane once the envelope exists.
	fw := wire.GetWriter()
	frame := registry.AppendFrame(fw.Bytes(), tag, m)
	var env []byte
	r.signLane.Go(func() error {
		sig, vec := auth.Authenticate(frame)
		raw := signedRaw{From: r.me, Frame: frame, Sig: sig, MACVec: vec}
		env = wire.Encode(&raw)
		wire.PutWriter(fw)
		return nil
	}, func(error) {
		// Deliberately lock-free: with a synchronous pipeline this
		// callback runs on the submitting goroutine, which already
		// holds r.mu. The transport is safe for concurrent use and
		// drops traffic after shutdown.
		if r.stopFlag.Load() {
			return
		}
		r.cfg.Node.Multicast(r.cfg.Group.Members, r.cfg.Stream, env)
	})
}

// --- proposing ----------------------------------------------------------

func (r *Replica) isLeaderLocked() bool { return r.cfg.leaderOf(r.view) == r.me }

// maybeProposeLocked drains the request queue into batches while the
// replica leads, the pipeline window has room, and takeBatchLocked
// yields one: a full batch, or a partial one when force is set or
// nothing is in flight.
func (r *Replica) maybeProposeLocked(force bool) {
	if !r.isLeaderLocked() || r.inVC || r.stopped || !r.started {
		return
	}
	for len(r.queue) > 0 && r.nextSeq <= r.lowWM+uint64(r.cfg.Window) {
		batch := r.takeBatchLocked(force)
		if batch == nil {
			return
		}
		r.proposeLocked(batch)
	}
}

// takeBatchLocked pops up to BatchSize still-queued payloads off the
// queue head. A full batch is always taken. A partial one is taken when
// force is set or when the leader has no instance in flight: waiting
// only buys a fuller batch while something else is keeping the group
// busy, and an idle leader that waits adds BatchDelay to every request
// of a lightly loaded system. Otherwise it returns nil, leaving the
// queue untouched and the batch timer armed; deliveryLoop comes back
// here after every delivery, so the wait ends with the last in-flight
// instance at the latest. Consuming from the head — rather than
// rewriting the whole queue — keeps each proposal O(batch), not
// O(queued): under saturation the queue holds thousands of requests
// and rewriting it per batch was a measurable share of the hot path.
func (r *Replica) takeBatchLocked(force bool) []queuedReq {
	target := r.batchTargetLocked()
	// Count before allocating: most calls at a loaded leader end in
	// "not yet", and those must not cost a batch-sized slice each.
	n, end := 0, 0
	for ; end < len(r.queue) && n < target; end++ {
		if r.seen[r.queue[end].digest] == reqQueued {
			n++
		}
	}
	idle := r.nextSeq <= r.nextDeliver
	if n < target && !force && !idle {
		if n > 0 {
			r.armBatchTimerLocked()
		}
		return nil
	}
	var batch []queuedReq
	if n > 0 {
		batch = make([]queuedReq, 0, n)
		for _, q := range r.queue[:end] {
			if r.seen[q.digest] == reqQueued {
				batch = append(batch, q)
			} // else delivered or already in flight; drop silently
		}
	}
	// Release the consumed prefix before advancing the slice offset:
	// the entries behind the offset would otherwise keep their payload
	// slices reachable until a capacity-exceeding append happens to
	// reallocate the backing array.
	clear(r.queue[:end])
	r.queue = r.queue[end:]
	if len(r.queue) == 0 {
		r.queue = nil
	}
	return batch
}

func (r *Replica) armBatchTimerLocked() {
	if r.batchTimerOn {
		return
	}
	r.batchTimerOn = true
	// The timer handle is retained so Stop can cancel it: an orphaned
	// AfterFunc would fire into the stopped replica's lock and keep the
	// replica reachable until the delay elapses. The delay re-arms from
	// the adaptive controller's current value when AdaptiveBatching is
	// on, so trickle load flushes partial batches almost immediately.
	r.batchTimer = time.AfterFunc(r.batchDelayLocked(), func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.batchTimerOn = false
		r.batchTimer = nil
		if !r.stopped {
			r.maybeProposeLocked(true)
		}
	})
}

func (r *Replica) proposeLocked(batch []queuedReq) {
	payloads := make([][]byte, len(batch))
	digests := make([]crypto.Digest, len(batch))
	for i, q := range batch {
		payloads[i] = q.payload
		digests[i] = q.digest
		r.seen[q.digest] = reqInflight
	}
	if r.cfg.BatchOccupancy != nil {
		r.cfg.BatchOccupancy.Record(len(payloads))
	}
	if r.tuner != nil {
		r.tuner.ObservePropose(time.Now(), len(batch), len(r.queue))
	}
	seq := r.nextSeq
	r.nextSeq++
	pp := &prePrepare{View: r.view, Seq: seq, Payloads: payloads}
	env, raw := r.sealLocked(tagPrePrepare, pp)

	e := r.entryLocked(seq)
	e.view = r.view
	e.digest = batchDigestOf(digests)
	e.payloads = payloads
	e.pdigests = digests
	e.havePP = true
	e.ppRaw = raw
	r.multicastLocked(env)
}

func (r *Replica) entryLocked(seq uint64) *entry {
	e, ok := r.log[seq]
	if !ok {
		e = newEntry(seq)
		r.log[seq] = e
	}
	return e
}

// --- normal case --------------------------------------------------------

func (r *Replica) handlePrePrepareLocked(from ids.NodeID, pp *prePrepare, raw signedRaw, valErr error, validated bool) {
	if pp.Seq > r.lowWM+2*uint64(r.cfg.Window) {
		r.maybeRequestStatusLocked()
		return
	}
	if r.inVC || pp.View != r.view || from != r.cfg.leaderOf(pp.View) {
		return
	}
	// Accept up to twice the proposal window: our own watermark may
	// trail the leader's by a checkpoint round, and refusing otherwise
	// valid proposals would force needless state transfer. The leader
	// proposes only within one window, so log growth stays bounded.
	if pp.Seq <= r.lowWM || pp.Seq > r.lowWM+2*uint64(r.cfg.Window) || pp.Seq < r.nextDeliver {
		return
	}
	e := r.entryLocked(pp.Seq)
	if e.havePP {
		return // first pre-prepare for this view/seq wins
	}
	if valErr != nil {
		return // refuse to endorse an invalid payload (A-Validity,
		// checked on the crypto pipeline before dispatch)
	}
	if !validated && from != r.me && r.cfg.Validate != nil {
		// The pipeline skipped validation because the frame looked
		// droppable at verify time; the state moved in its favor, so
		// validate inline (rare: a racing watermark or view install).
		for _, p := range pp.Payloads {
			if err := r.cfg.Validate(p); err != nil {
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
		if r.seen[d] != reqDelivered {
			r.seen[d] = reqInflight
		}
	}
	if from != r.me && !e.sentPrepare {
		e.sentPrepare = true
		r.authMulticastLocked(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest}, r.normalAuth)
	}
	r.checkPreparedLocked(e)
	r.checkCommittedLocked(e)
}

func (r *Replica) handlePrepareLocked(from ids.NodeID, p *prepare, raw signedRaw) {
	if r.stalePrepareLocked(from, p, raw.transferable()) {
		return
	}
	e := r.entryLocked(p.Seq)
	e.prepareVotes[from] = voteRaw{view: p.View, digest: p.Digest, raw: raw}
	r.checkPreparedLocked(e)
}

// stalePrepareLocked reports whether a prepare from `from` is to be
// discarded: below the watermark, outside what its authentication kind
// may vote on, from the proposer, or a repeat. Shared by the handler
// and by voteStillCounts, which asks before the signature is checked.
func (r *Replica) stalePrepareLocked(from ids.NodeID, p *prepare, signed bool) bool {
	if p.Seq <= r.lowWM {
		return true
	}
	if from == r.cfg.leaderOf(p.View) {
		return true // the proposer's pre-prepare is its prepare vote
	}
	e, ok := r.log[p.Seq]
	if signed && ok && e.havePP {
		// Signed votes — re-votes from the proof-upgrade round or
		// fallback answers — bind to the entry they certify rather
		// than the live view, and are accepted even for delivered
		// batches still in the log: their prepared proofs may be
		// needed by the next view change.
		if p.View != e.view {
			return true
		}
	} else if r.inVC || p.View != r.view || p.Seq < r.nextDeliver {
		return true // MAC votes serve only the live view's fast path
	}
	if !ok {
		return false
	}
	// One vote per node, except that a signed re-vote for the same
	// (view, digest) upgrades a MAC vote into a transferable one.
	cur, dup := e.prepareVotes[from]
	return dup && (!signed || cur.raw.transferable() || cur.view != p.View || cur.digest != p.Digest)
}

// votersLocked returns the reusable quorum-counting scratch map,
// cleared. Vote tallies run on every prepare/commit arrival, so a
// fresh map per check would be a steady allocation on the hot path;
// quorum policies only read the map and never retain it.
func (r *Replica) votersLocked() map[ids.NodeID]bool {
	if r.votersScratch == nil {
		r.votersScratch = make(map[ids.NodeID]bool, len(r.cfg.Group.Members))
	}
	clear(r.votersScratch)
	return r.votersScratch
}

func (r *Replica) checkPreparedLocked(e *entry) {
	if !e.havePP {
		return
	}
	voters := r.votersLocked()
	voters[r.cfg.leaderOf(e.view)] = true
	var sigRaws []signedRaw
	for node, v := range e.prepareVotes {
		if v.view == e.view && v.digest == e.digest {
			voters[node] = true
			if v.raw.transferable() {
				sigRaws = append(sigRaws, v.raw)
			}
		}
	}
	if !e.prepared && !r.cfg.Policy.IsQuorum(voters) {
		return
	}
	first := !e.prepared
	e.prepared = true
	// Only signed votes survive into the prepared proof: MAC votes are
	// not transferable, so under the MAC fast path this set usually
	// stays empty until the view-change proof-upgrade round re-issues
	// the votes with signatures.
	e.preparedRaws = sigRaws
	if first {
		if !e.sentCommit {
			e.sentCommit = true
			r.authMulticastLocked(tagCommit, &commit{View: e.view, Seq: e.seq, Digest: e.digest}, r.normalAuth)
		}
		r.checkCommittedLocked(e)
	}
	if r.inVC && !r.vcSent {
		// A late signed re-vote may have completed the transferable
		// proofs the pending view-change message is holding for.
		r.maybeEmitViewChangeLocked()
	}
}

// handleVoteRequestLocked answers a peer's request to re-issue one of
// this replica's normal-case votes as a signed message (the MAC fast
// path's fallback). The reply is unicast: only the requester saw the
// unverifiable frame.
func (r *Replica) handleVoteRequestLocked(from ids.NodeID, vr *voteRequest) {
	e, ok := r.log[vr.Seq]
	if !ok || !e.havePP || e.view != vr.View {
		return
	}
	if time.Since(r.voteAnsAt[from]) < 100*time.Millisecond {
		return // replay protection: bounded signing work per peer
	}
	r.voteAnsAt[from] = time.Now()
	switch vr.Kind {
	case voteKindPrepare:
		if !e.sentPrepare || r.me == r.cfg.leaderOf(e.view) {
			return
		}
		env, _ := r.sealLocked(tagPrepare, &prepare{View: e.view, Seq: e.seq, Digest: e.digest})
		r.cfg.Node.Send(from, r.cfg.Stream, env)
	case voteKindCommit:
		if !e.sentCommit {
			return
		}
		env, _ := r.sealLocked(tagCommit, &commit{View: e.view, Seq: e.seq, Digest: e.digest})
		r.cfg.Node.Send(from, r.cfg.Stream, env)
	}
}

func (r *Replica) handleCommitLocked(from ids.NodeID, c *commit, raw signedRaw) {
	if c.Seq > r.lowWM+2*uint64(r.cfg.Window) {
		r.maybeRequestStatusLocked()
		return
	}
	if r.staleCommitLocked(from, c) {
		return
	}
	e := r.entryLocked(c.Seq)
	e.commitVotes[from] = voteRaw{view: c.View, digest: c.Digest, raw: raw}
	r.checkCommittedLocked(e)
}

// staleCommitLocked reports whether a commit from `from` is to be
// discarded: outside the live view, below what is still open, or a
// repeat. Shared by the handler and by voteStillCounts.
func (r *Replica) staleCommitLocked(from ids.NodeID, c *commit) bool {
	if r.inVC || c.View != r.view || c.Seq <= r.lowWM || c.Seq < r.nextDeliver {
		return true
	}
	e, ok := r.log[c.Seq]
	if !ok {
		return false
	}
	_, dup := e.commitVotes[from]
	return dup
}

func (r *Replica) checkCommittedLocked(e *entry) {
	if e.committed || !e.havePP {
		return
	}
	voters := r.votersLocked()
	for node, v := range e.commitVotes {
		if v.view == e.view && v.digest == e.digest {
			voters[node] = true
		}
	}
	if !r.cfg.Policy.IsQuorum(voters) {
		return
	}
	e.committed = true
	r.cond.Broadcast()
}

// --- delivery -----------------------------------------------------------

func (r *Replica) deliveryLoop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		var e *entry
		for !r.stopped {
			if cand, ok := r.log[r.nextDeliver]; ok && cand.committed && !cand.delivered {
				e = cand
				break
			}
			if r.pendingJump != nil {
				j := r.pendingJump
				r.pendingJump = nil
				if j.batch >= r.nextDeliver {
					// Blocked with no deliverable batch: fast forward
					// over garbage-collected history.
					r.performJumpLocked(j)
					continue
				}
			}
			r.cond.Wait()
		}
		if r.stopped {
			r.mu.Unlock()
			return
		}

		e.delivered = true
		e.globalStart = r.nextGlobal
		e.globalEnd = r.nextGlobal + uint64(len(e.payloads)) - 1
		r.nextDeliver++
		r.nextGlobal += uint64(len(e.payloads))
		r.chain = chainDigest(r.chain, e.digest)
		var worstLat time.Duration
		now := time.Now()
		for _, d := range e.payloadDigestsLocked() {
			if r.mon != nil {
				if t0, ok := r.pendingSince[d]; ok {
					if lat := now.Sub(t0); lat > worstLat {
						worstLat = lat
					}
				}
			}
			r.seen[d] = reqDelivered
			delete(r.pendingSince, d)
		}
		if r.mon != nil {
			r.mon.observeDelivery(now, len(e.payloads), worstLat)
		}
		r.curTimeout = r.cfg.RequestTimeout // progress: reset backoff

		payloads := e.payloads
		pdigests := e.payloadDigestsLocked() // already cached; delivered entries are immutable
		globalStart := e.globalStart
		batchSeq := e.seq

		if batchSeq%uint64(r.cfg.CheckpointInterval) == 0 {
			// Checkpoints stay signed in both modes: a quorum of them
			// is a stable-checkpoint certificate that travels inside
			// view-change messages and status replies.
			msg := &checkpointMsg{BatchSeq: batchSeq, GlobalSeq: r.nextGlobal - 1, Chain: r.chain}
			r.authMulticastLocked(tagCheckpoint, msg, r.sigAuth)
		}
		// A committed successor may already be waiting.
		r.cond.Broadcast()
		// With this instance gone the leader may be idle: what queued up
		// behind it leaves now, not when the batch timer fires.
		r.maybeProposeLocked(false)
		r.mu.Unlock()

		// One callback per batch, null batches included: the layer
		// above keys its commit-channel positions on batch sequence
		// numbers, so even an empty decision must be announced.
		r.cfg.Deliver(consensus.Batch{
			Seq:      batchSeq,
			Start:    ids.SeqNr(globalStart),
			Payloads: payloads,
			Digests:  pdigests,
		})
	}
}

// chainDigest extends the delivery chain hash by one batch digest.
func chainDigest(prev, batch crypto.Digest) crypto.Digest {
	var buf [2 * crypto.DigestSize]byte
	copy(buf[:crypto.DigestSize], prev[:])
	copy(buf[crypto.DigestSize:], batch[:])
	return crypto.Hash(buf[:])
}

// --- internal checkpoints & catch-up -------------------------------------

func (r *Replica) handleCheckpointLocked(from ids.NodeID, c *checkpointMsg, raw signedRaw) {
	if c.BatchSeq <= r.lowWM {
		return
	}
	votes, ok := r.ckptVotes[c.BatchSeq]
	if !ok {
		votes = make(map[ids.NodeID]ckptVote)
		r.ckptVotes[c.BatchSeq] = votes
	}
	if _, dup := votes[from]; dup {
		return
	}
	votes[from] = ckptVote{global: c.GlobalSeq, chain: c.Chain, raw: raw}

	voters := make(map[ids.NodeID]bool)
	var proof []signedRaw
	for node, v := range votes {
		if v.global == c.GlobalSeq && v.chain == c.Chain {
			voters[node] = true
			proof = append(proof, v.raw)
		}
	}
	if !r.cfg.Policy.IsQuorum(voters) {
		return
	}
	r.stabilizeLocked(c.BatchSeq, c.GlobalSeq, c.Chain, proof)
}

// stabilizeLocked installs a stable checkpoint: the watermark advances
// and fully processed log entries are pruned. If this replica has
// fallen behind, a jump target is recorded; the delivery loop performs
// the jump once no locally committed batch can still be delivered in
// order (A-Order permits the resulting gap as garbage collection; the
// layer above repairs its state via its own checkpoints, as Spider
// does).
func (r *Replica) stabilizeLocked(batch, global uint64, chain crypto.Digest, proof []signedRaw) {
	if batch <= r.lowWM {
		return
	}
	r.lowWM = batch
	r.stableProof = proof
	r.stableGlobal = global
	r.stableChain = chain
	if r.nextDeliver <= batch {
		if r.pendingJump == nil || batch > r.pendingJump.batch {
			r.pendingJump = &jumpTarget{batch: batch, global: global, chain: chain}
		}
	}
	if r.nextSeq <= batch {
		r.nextSeq = batch + 1
	}
	for seq, e := range r.log {
		// Keep committed-but-undelivered entries: the delivery loop
		// still needs their payloads.
		if seq <= batch && (e.delivered || !e.committed) {
			for _, d := range e.payloadDigestsLocked() {
				if e.delivered || r.seen[d] == reqDelivered {
					delete(r.seen, d)
					delete(r.pendingSince, d)
				}
			}
			delete(r.log, seq)
		}
	}
	for seq := range r.ckptVotes {
		if seq <= batch {
			delete(r.ckptVotes, seq)
		}
	}
	r.cond.Broadcast()
	r.maybeProposeLocked(false)
}

// performJumpLocked fast-forwards delivery past garbage-collected
// history. Only the delivery loop calls it, so delivery order and the
// global sequence counter stay consistent.
func (r *Replica) performJumpLocked(j *jumpTarget) {
	if j.batch < r.nextDeliver {
		return
	}
	for seq, e := range r.log {
		if seq > j.batch {
			continue
		}
		for _, d := range e.payloadDigestsLocked() {
			r.seen[d] = reqDelivered
			delete(r.pendingSince, d)
		}
		delete(r.log, seq)
	}
	r.nextDeliver = j.batch + 1
	r.nextGlobal = j.global + 1
	r.chain = j.chain
	// History is gone: this replica can no longer tell whether its
	// pending payloads were ordered inside the window it skipped, so
	// their fault-detection markers are dropped. Censorship detection
	// is unharmed: the 2f other correct replicas keep their markers
	// (only f replicas can be this far behind in a live system), and
	// upstream retries re-arm markers here via Order.
	for d := range r.pendingSince {
		delete(r.pendingSince, d)
	}
	// Jumping means the group made progress without us; if we were
	// sulking in a lonely view change, rejoin normal operation.
	if r.inVC {
		r.inVC = false
		r.vcTarget = r.view
		r.curTimeout = r.cfg.RequestTimeout
	}
}

// maybeRequestStatusLocked asks peers for catch-up material, rate
// limited to one request per second.
func (r *Replica) maybeRequestStatusLocked() {
	if time.Since(r.lastStatusReq) < time.Second {
		return
	}
	r.lastStatusReq = time.Now()
	env, _ := r.sealLocked(tagStatusRequest, &statusRequest{NextDeliver: r.nextDeliver})
	for _, m := range r.cfg.Group.Members {
		if m != r.me {
			r.cfg.Node.Send(m, r.cfg.Stream, env)
		}
	}
}

// maxStatusEntries bounds how many commit certificates one status
// reply carries.
const maxStatusEntries = 64

func (r *Replica) handleStatusRequestLocked(from ids.NodeID, req *statusRequest) {
	reply := &statusReply{
		StableBatch:  r.lowWM,
		StableGlobal: r.stableGlobal,
		StableChain:  r.stableChain,
		StableProof:  r.stableProof,
		NewViewEnv:   r.lastNewViewEnv,
	}
	start := req.NextDeliver
	if start <= r.lowWM {
		start = r.lowWM + 1
	}
	seqs := make([]uint64, 0, len(r.log))
	for seq, e := range r.log {
		if seq >= start && e.committed && e.havePP {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if len(reply.Entries) == maxStatusEntries {
			break
		}
		e := r.log[seq]
		var commits []signedRaw
		for _, v := range e.commitVotes {
			if v.view == e.view && v.digest == e.digest {
				commits = append(commits, v.raw)
			}
		}
		reply.Entries = append(reply.Entries, committedEntry{PrePrepare: e.ppRaw, Commits: commits})
	}
	env, _ := r.sealLocked(tagStatusReply, reply)
	r.cfg.Node.Send(from, r.cfg.Stream, env)
}

// statusVerdict carries the certificate verdicts the crypto pipeline
// precomputed for one status reply, so the replica lock only pays for
// state updates, never for signature loops (ROADMAP: batch
// verification of checkpoint and commit certificates).
type statusVerdict struct {
	stableOK bool
	entries  []commitCertVerdict
	// Relayed new-view envelope, pre-verified like a direct one.
	nvFrom ids.NodeID
	nvMsg  *newView
	nv     *nvVerdict
}

// commitCertVerdict is the precomputed verdict for one committedEntry.
type commitCertVerdict struct {
	pp     *prePrepare
	digest crypto.Digest
	ok     bool
}

// verifyStatusReply runs every certificate in a status reply through
// the crypto pipeline, off the replica lock. A snapshot of the
// watermarks skips work that cannot matter; the handlers re-check all
// state-dependent conditions at dispatch time, so a stale snapshot can
// only cost a retry, never correctness.
func (r *Replica) verifyStatusReply(reply *statusReply) *statusVerdict {
	r.mu.Lock()
	lowWM, nextDeliver, view := r.lowWM, r.nextDeliver, r.view
	r.mu.Unlock()

	v := &statusVerdict{entries: make([]commitCertVerdict, len(reply.Entries))}
	if reply.StableBatch > lowWM {
		v.stableOK = r.verifyCheckpointProof(reply.StableBatch, reply.StableGlobal, reply.StableChain, reply.StableProof)
	}
	for i := range reply.Entries {
		v.entries[i] = r.verifyCommitCert(&reply.Entries[i], lowWM, nextDeliver)
	}
	if len(reply.NewViewEnv) > 0 {
		var raw signedRaw
		if err := wire.Decode(reply.NewViewEnv, &raw); err == nil && r.verifyRaw(&raw) == nil {
			if tag, msg, err := registry.DecodeFrame(raw.Frame); err == nil && tag == tagNewView {
				nv := msg.(*newView)
				if nv.View > view {
					v.nvFrom = raw.From
					v.nvMsg = nv
					v.nv = r.verifyNewView(raw.From, nv)
				}
			}
		}
	}
	return v
}

func (r *Replica) handleStatusReplyLocked(reply *statusReply, v *statusVerdict) {
	if v == nil {
		return
	}
	if v.nvMsg != nil {
		// A relayed new-view envelope lets a replica stuck in an old
		// view adopt the group's current one; it is self-certifying
		// (it embeds the signed view-change quorum) and was verified
		// on the pipeline like a directly received one.
		r.handleNewViewLocked(v.nvFrom, v.nvMsg, v.nv, reply.NewViewEnv)
	}
	if reply.StableBatch > r.lowWM && v.stableOK {
		r.stabilizeLocked(reply.StableBatch, reply.StableGlobal, reply.StableChain, reply.StableProof)
	}
	for i := range reply.Entries {
		r.installCommittedEntryLocked(&reply.Entries[i], &v.entries[i])
	}
}

// verifyCheckpointProof checks a checkpoint certificate: a quorum of
// distinct group members signed matching checkpoint messages. The
// per-member signature checks fan out across the crypto pipeline; the
// whole certificate is rejected if the valid shares fall short of a
// quorum. Lock-free: it reads only immutable configuration.
func (r *Replica) verifyCheckpointProof(batch, global uint64, chain crypto.Digest, proof []signedRaw) bool {
	seen := make(map[ids.NodeID]bool, len(proof))
	checks := make([]func() error, 0, len(proof))
	froms := make([]ids.NodeID, 0, len(proof))
	for i := range proof {
		raw := &proof[i]
		if seen[raw.From] {
			continue
		}
		seen[raw.From] = true
		froms = append(froms, raw.From)
		checks = append(checks, func() error {
			if err := r.verifyRaw(raw); err != nil {
				return err
			}
			tag, msg, err := registry.DecodeFrame(raw.Frame)
			if err != nil || tag != tagCheckpoint {
				return crypto.ErrBadSignature
			}
			c := msg.(*checkpointMsg)
			if c.BatchSeq != batch || c.GlobalSeq != global || c.Chain != chain {
				return crypto.ErrBadSignature
			}
			return nil
		})
	}
	errs := r.cfg.Pipeline.RunBatch(checks)
	voters := make(map[ids.NodeID]bool, len(froms))
	for i, err := range errs {
		if err == nil {
			voters[froms[i]] = true
		}
	}
	return r.cfg.Policy.IsQuorum(voters)
}

// verifyCommitCert checks a self-contained commit certificate off the
// replica lock, fanning the per-vote checks across the crypto
// pipeline. The pre-prepare must be signed (it is stored as a
// transferable proof); the commits may be signed or MAC-vector
// authenticated — a relayed MAC vector still carries this replica's
// own entry, which its original sender alone could forge, so it is as
// convincing to us as a signature even though we cannot pass it on.
func (r *Replica) verifyCommitCert(ce *committedEntry, lowWM, nextDeliver uint64) commitCertVerdict {
	if !ce.PrePrepare.transferable() || r.verifyRaw(&ce.PrePrepare) != nil {
		return commitCertVerdict{}
	}
	tag, msg, err := registry.DecodeFrame(ce.PrePrepare.Frame)
	if err != nil || tag != tagPrePrepare {
		return commitCertVerdict{}
	}
	pp := msg.(*prePrepare)
	if ce.PrePrepare.From != r.cfg.leaderOf(pp.View) {
		return commitCertVerdict{}
	}
	if pp.Seq < nextDeliver || pp.Seq <= lowWM {
		return commitCertVerdict{}
	}
	digest := batchDigest(pp.Payloads)
	seen := make(map[ids.NodeID]bool, len(ce.Commits))
	checks := make([]func() error, 0, len(ce.Commits))
	froms := make([]ids.NodeID, 0, len(ce.Commits))
	for i := range ce.Commits {
		raw := &ce.Commits[i]
		if seen[raw.From] {
			continue
		}
		seen[raw.From] = true
		froms = append(froms, raw.From)
		checks = append(checks, func() error {
			ctag, cmsg, err := registry.DecodeFrame(raw.Frame)
			if err != nil || ctag != tagCommit {
				return crypto.ErrBadSignature
			}
			c := cmsg.(*commit)
			if c.View != pp.View || c.Seq != pp.Seq || c.Digest != digest {
				return crypto.ErrBadSignature
			}
			if raw.From == r.me && !raw.transferable() {
				// Our own relayed MAC commit cannot be checked against
				// its vector (the self entry is empty) and a relayer
				// could fabricate it; accept it only if it matches a
				// commit this replica actually sent, else a certificate
				// echoing our own vote back at us would never reach its
				// quorum and catch-up of a replica that missed its
				// peers' commits would stall.
				if !r.sentCommitMatches(c) {
					return crypto.ErrBadMAC
				}
				return nil
			}
			return r.verifyAuthRaw(raw)
		})
	}
	errs := r.cfg.Pipeline.RunBatch(checks)
	voters := make(map[ids.NodeID]bool, len(froms))
	for i, err := range errs {
		if err == nil {
			voters[froms[i]] = true
		}
	}
	if !r.cfg.Policy.IsQuorum(voters) {
		return commitCertVerdict{}
	}
	return commitCertVerdict{pp: pp, digest: digest, ok: true}
}

// staleViewChange reports whether a view-change frame is already
// irrelevant — an old target view, or a duplicate vote from its
// sender. Both conditions are stable once true (the view never
// regresses, and a recorded vote outlives its target), so skipping
// verification for them can never drop a message dispatch would have
// used. Takes the lock briefly; called from pipeline compute only.
func (r *Replica) staleViewChange(from ids.NodeID, vc *viewChange) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if vc.NewView <= r.view {
		return true
	}
	if votes, ok := r.vcs[vc.NewView]; ok {
		if _, dup := votes[from]; dup {
			return true
		}
	}
	return false
}

// staleNewView reports whether a new-view frame targets a view at or
// below the current one (stable once true; see staleViewChange).
func (r *Replica) staleNewView(nv *newView) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return nv.View <= r.view
}

// sentCommitMatches reports whether this replica really multicast the
// given commit, authenticating a relayed copy of its own vote against
// local state. Takes the replica lock briefly; only called from
// pipeline compute functions, never under the lock.
func (r *Replica) sentCommitMatches(c *commit) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.log[c.Seq]
	return ok && e.sentCommit && e.view == c.View && e.digest == c.Digest
}

// installCommittedEntryLocked installs a batch whose commit
// certificate the pipeline already verified, re-checking only the
// state-dependent window conditions.
func (r *Replica) installCommittedEntryLocked(ce *committedEntry, v *commitCertVerdict) {
	if !v.ok {
		return
	}
	pp := v.pp
	if pp.Seq < r.nextDeliver || pp.Seq <= r.lowWM {
		return
	}
	e := r.entryLocked(pp.Seq)
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
	if e.seq == r.nextDeliver {
		r.cond.Broadcast()
	}
}

// --- timers ---------------------------------------------------------------

func (r *Replica) timerLoop() {
	defer r.wg.Done()
	interval := r.cfg.RequestTimeout / 8
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			r.mu.Lock()
			r.checkTimeoutsLocked()
			r.mu.Unlock()
		}
	}
}

func (r *Replica) checkTimeoutsLocked() {
	if r.stopped {
		return
	}
	now := time.Now()

	// Stuck detection: if delivery has not advanced for a while and
	// there is evidence the group moved on without us (commit votes we
	// cannot use, committed batches beyond a gap, or a watermark ahead
	// of delivery), ask peers for the missing material. A missed
	// message must trigger state transfer, not a view change.
	if r.nextDeliver != r.progressSeq {
		r.progressSeq = r.nextDeliver
		r.progressAt = now
	} else if now.Sub(r.progressAt) > r.curTimeout/4 && r.deliveryLooksStuckLocked() {
		r.maybeRequestStatusLocked()
	}

	if r.inVC {
		if !r.vcSent {
			// The proof-upgrade hold may have expired: emit the
			// view-change message with whatever proofs were rebuilt.
			r.maybeEmitViewChangeLocked()
		}
		if now.After(r.vcDeadline) {
			r.startViewChangeLocked(r.vcTarget + 1)
		}
		return
	}
	var oldestWait time.Duration
	if len(r.pendingSince) > 0 {
		oldest := now
		for _, t := range r.pendingSince {
			if t.Before(oldest) {
				oldest = t
			}
		}
		oldestWait = now.Sub(oldest)
		if oldestWait > r.curTimeout {
			r.startViewChangeLocked(r.view + 1)
			return
		}
	}
	// Gray-failure defense: the silence timeout above never fires
	// against a leader that commits *just* fast enough, so the
	// performance monitor separately accuses a leader that measurably
	// underperforms the recent healthy baseline while requests wait.
	if r.mon != nil {
		if reason := r.mon.evaluate(now, r.view, len(r.pendingSince) > 0, oldestWait); reason != "" {
			r.startViewChangeLocked(r.view + 1)
		}
	}
}

// deliveryLooksStuckLocked reports whether the blocked delivery head is
// likely waiting for a message this replica missed rather than for the
// protocol to advance.
func (r *Replica) deliveryLooksStuckLocked() bool {
	if r.nextDeliver <= r.lowWM {
		return true
	}
	if e, ok := r.log[r.nextDeliver]; ok {
		if !e.havePP && len(e.commitVotes) > 0 {
			return true // peers committed a batch we never saw proposed
		}
		if !e.committed && len(e.commitVotes) > r.cfg.Group.F {
			return true // a correct replica already committed it
		}
	}
	for seq, e := range r.log {
		if seq > r.nextDeliver && e.committed {
			return true // gap below committed batches
		}
	}
	return false
}
