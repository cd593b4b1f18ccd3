package pbft

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"spider/internal/consensus"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/transport"
	"spider/internal/wire"
)

// Replica is one PBFT group member implementing consensus.Agreement. It
// wraps the core (core.go): it owns the one lock, the transport handler,
// a single timer and the delivery goroutine, and turns each of them into
// events for the core and the core's actions into sends, signatures and
// deliveries.
type Replica struct {
	cfg  Config
	me   ids.NodeID
	core *core

	mu      sync.Mutex
	cond    *sync.Cond // signaled when the core has a batch to take
	started bool
	stopped bool
	wg      sync.WaitGroup
	timer   *time.Timer
	wakeAt  time.Time // when timer fires next

	// Authenticators: sigAuth signs (always used for messages that may
	// land in proofs), macAuth produces/checks MAC vectors over the
	// group, and normalAuth is whichever of the two the configured
	// NormalCaseAuth selects for prepare/commit.
	sigAuth    crypto.GroupAuthenticator
	macAuth    crypto.GroupAuthenticator
	normalAuth crypto.GroupAuthenticator

	// certs checks the certificates frames carry.
	certs quorum.Cert
}

var _ consensus.Agreement = (*Replica)(nil)

// New creates a PBFT replica. It handles inbound frames, timers and
// deliveries only after Start; inbound traffic waits in the transport
// until then.
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
		cfg:     cfg,
		me:      cfg.Suite.Node(),
		sigAuth: crypto.NewSignatureAuthenticator(cfg.Suite, crypto.DomainPBFT),
		macAuth: crypto.NewMACVectorAuthenticator(cfg.Suite, cfg.Group.Members, crypto.DomainPBFT),
		certs:   quorum.Cert{Rule: cfg.Policy, Members: cfg.Group},
	}
	r.core = newCore(&r.cfg, time.Now())
	r.cond = sync.NewCond(&r.mu)
	r.normalAuth = r.macAuth
	if cfg.NormalCaseAuth == AuthSignatures {
		r.normalAuth = r.sigAuth
	}
	return r, nil
}

// Start implements consensus.Agreement.
func (r *Replica) Start() {
	r.mu.Lock()
	if r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.timer = time.AfterFunc(0, r.onTimer) // the first tick arms the next
	r.mu.Unlock()

	// The transport hands a drained run of queued frames to onFrames in
	// one call.
	r.cfg.Node.HandleBatch(r.cfg.Stream, r.onFrames)

	r.wg.Add(1)
	go r.deliveryLoop()
}

// Stop implements consensus.Agreement.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	if r.timer != nil {
		r.timer.Stop()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// View returns the current view number (for tests and diagnostics).
func (r *Replica) View() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.view
}

// Leader returns the current view's leader.
func (r *Replica) Leader() ids.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.leaderOf(r.core.view)
}

// ViewChanges returns how many view changes this replica has entered
// (timeout-driven, join-amplified, or proactive).
func (r *Replica) ViewChanges() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.vcCount
}

// Rotations returns how many suspicions the failure detector's slowness
// rule sent from this replica, and the latest ones with their reasons,
// newest last.
func (r *Replica) Rotations() (uint64, []Rotation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.slow.rotations, slices.Clone(r.core.slow.reasons)
}

// ViewThroughput returns the payloads committed per second in each
// recent view, the current one so far included.
func (r *Replica) ViewThroughput() []ViewRate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.core.slow.snapshotViewRates(time.Now(), r.core.view)
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
	r.step(event{kind: evOrder, now: time.Now(), payload: payload, digest: d})
}

// GC implements consensus.Agreement: delivered batches entirely below
// the given global sequence number may be forgotten.
func (r *Replica) GC(before ids.SeqNr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.step(event{kind: evGC, now: time.Now(), before: before})
}

// step feeds one event to the core and carries out its actions, under
// r.mu. It returns the batch an evTake took, if any. Nothing reaches
// the core after Stop; before Start only Order and GC do.
func (r *Replica) step(ev event) (batch consensus.Batch, taken bool) {
	if r.stopped {
		return batch, false
	}
	acts := r.core.Step(ev)
	for i := range acts {
		a := &acts[i]
		switch a.kind {
		case actSend:
			r.cfg.Node.Send(a.to, r.cfg.Stream, a.env)
		case actMulticast:
			transport.Multicast(r.cfg.Node, r.cfg.Group.Members, r.cfg.Stream, a.env)
		case actAuthMulticast:
			r.authMulticast(a)
		case actDeliverable:
			r.cond.Signal()
		case actDeliver:
			batch, taken = a.batch, true
		case actViewInstalled:
			if r.cfg.OnViewInstall != nil {
				r.cfg.OnViewInstall(a.view)
			}
		}
	}
	if w := r.core.wake(); r.timer != nil && !w.Equal(r.wakeAt) {
		r.wakeAt = w
		r.timer.Reset(time.Until(w))
	}
	return batch, taken
}

// ask runs a core query for check, under the lock.
func (r *Replica) ask(q func(c *core) bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return q(r.core)
}

// authMulticast authenticates an actAuthMulticast message and
// multicasts the envelope, inside the step that produced it, so peers
// observe this replica's messages in the order the core produced them.
func (r *Replica) authMulticast(a *action) {
	// The frame is encoded (the message may reference core state) into a
	// pooled buffer; only the envelope — encoded exactly once for all
	// recipients — is a fresh allocation, because the transport retains
	// it.
	fw := wire.GetWriter()
	frame := registry.AppendFrame(fw.Bytes(), a.tag, a.msg)
	auth := r.normalAuth
	if a.signed {
		auth = r.sigAuth
	}
	sig, vec := auth.Authenticate(frame)
	env := wire.Encode(&signedRaw{From: r.me, Frame: frame, Sig: sig, MACVec: vec})
	wire.PutWriter(fw)
	transport.Multicast(r.cfg.Node, r.cfg.Group.Members, r.cfg.Stream, env)
}

// onFrames admits a run of frames that arrived back-to-back from one
// peer, in arrival order, on the peer's delivery goroutine. Each frame
// is checked (check: authentication and certificates) without the lock,
// which is taken only for the step that feeds it to the core.
func (r *Replica) onFrames(from ids.NodeID, payloads [][]byte) {
	if !r.cfg.Group.Contains(from) {
		return // not a group member
	}
	// One backing array for the run's inbound records: a saturated
	// link pays one allocation per drain instead of one per frame.
	ins := make([]inbound, len(payloads))
	for i, payload := range payloads {
		// Zero-copy decode: the envelope's frame, signature and MAC
		// vector alias the transport payload, which the transport
		// contract guarantees is immutable shared data. Vote raws
		// retained in the log therefore pin their frame (and, over
		// tcpnet, its arena chunk) until checkpoint GC — a bounded,
		// documented trade for an allocation-free admission path.
		in := &ins[i]
		if err := wire.DecodeShared(payload, &in.raw); err != nil {
			continue
		}
		if in.raw.From != from {
			continue // transport identity must match the claimed sender
		}
		in.from, in.env = from, payload
		if err := r.check(in); err != nil && in.fallback == nil {
			continue
		}
		r.mu.Lock()
		r.step(event{kind: evFrame, now: time.Now(), in: in})
		r.mu.Unlock()
	}
}

// onTimer is the one timer's callback: a tick for the core, which then
// says when it wants the next one.
func (r *Replica) onTimer() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wakeAt = time.Time{} // fired: re-arm whatever the tick leaves
	r.step(event{kind: evTick, now: time.Now()})
}

// deliveryLoop takes one batch at a time and hands it to Deliver without
// the lock. A batch counts as delivered only when taken, so a Deliver
// that blocks holds back the core's watermark: that is the DeliverFunc
// backpressure contract.
func (r *Replica) deliveryLoop() {
	defer r.wg.Done()
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for !r.stopped && !r.core.deliverable() {
			r.cond.Wait()
		}
		if r.stopped {
			return
		}
		if b, ok := r.step(event{kind: evTake, now: time.Now()}); ok {
			r.mu.Unlock()
			r.cfg.Deliver(b)
			r.mu.Lock()
		}
	}
}
