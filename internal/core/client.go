package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/wire"
)

// Client implements Figure 15 of the paper: it submits operations to
// every replica of its execution group, resends until it obtains fe+1
// matching replies, and verifies results purely against its local
// group. Clients are safe for use by one goroutine at a time (the
// paper's clients are sequential: a new request starts only after the
// previous reply was accepted).
type Client struct {
	cfg ClientConfig

	mu      sync.Mutex
	group   ids.Group
	counter uint64
	waiting *replyWait

	// registryVotes receives registry replies while a QueryRegistry is
	// in flight; nil otherwise. Guarded by mu.
	registryVotes chan registryVote

	// replyHook, when set by tests, observes every verified reply in
	// dispatch order (called before the reply is applied).
	replyHook func(from ids.NodeID, reply *Reply)

	registered sync.Once
}

// registryVote is one agreement replica's registry reply; the sender
// identity travels along so the quorum counts distinct replicas.
type registryVote struct {
	from ids.NodeID
	info RegistryInfo
}

// replyWait collects replies for one in-flight request: one per replica,
// grouped by result, at the request's counter.
type replyWait struct {
	counter uint64
	replies *quorum.Collector[uint64, string, struct{}]
	done    chan []byte // receives the accepted result
}

// ErrTimeout is returned when an operation misses its deadline.
var ErrTimeout = errors.New("core: operation deadline exceeded")

// NewClient creates a client handle.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Client{
		cfg:     cfg,
		group:   cfg.Group.Clone(),
		counter: cfg.CounterStart,
	}, nil
}

// Group returns the execution group the client currently uses.
func (c *Client) Group() ids.Group {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.group.Clone()
}

// SwitchGroup redirects the client to a different execution group,
// e.g. when its group became unavailable (Section 3.1) or a closer
// group appeared (Section 3.6).
func (c *Client) SwitchGroup(g ids.Group) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.group = g.Clone()
}

// Write submits a state-modifying operation with linearizable
// semantics.
func (c *Client) Write(op []byte) ([]byte, error) {
	return c.do(KindWrite, op)
}

// StrongRead submits a read with strong consistency: it follows the
// write path through the agreement group (Section 3.3).
func (c *Client) StrongRead(op []byte) ([]byte, error) {
	return c.do(KindStrongRead, op)
}

// WeakRead reads directly from the local execution group: one
// round trip, possibly stale under concurrent writes. Callers retry or
// escalate to StrongRead when it fails to gather matching replies.
func (c *Client) WeakRead(op []byte) ([]byte, error) {
	return c.do(KindWeakRead, op)
}

// Admin submits a reconfiguration command; the client must be listed
// in the agreement group's AdminClients.
func (c *Client) Admin(op AdminOp) error {
	_, err := c.do(KindAdmin, EncodeAdminOp(op))
	return err
}

func (c *Client) ensureHandler() {
	c.registered.Do(func() {
		c.cfg.Node.Handle(replyStream(), c.onInbox)
	})
}

// known reports whether from is an execution-group or agreement-group
// member: the transport sender identity is an unauthenticated claim, and
// a stranger's frame is not worth a MAC check.
func (c *Client) known(from ids.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.group.Contains(from) || c.cfg.AgreementGroup.Contains(from)
}

// onInbox is the reply-stream transport handler. It runs on the sending
// replica's delivery goroutine, so each replica's replies are verified
// and dispatched in arrival order. Frames from strangers are dropped
// before the MAC check.
func (c *Client) onInbox(from ids.NodeID, payload []byte) {
	if !c.known(from) {
		return
	}
	tag, msg, err := openClientFrame(c.cfg.Suite, crypto.DomainReply, from, payload)
	if err != nil {
		return
	}
	switch tag {
	case tagReply:
		c.applyReply(from, msg.(*Reply))
	case tagRegistryInfo:
		c.applyRegistryInfo(from, msg.(*RegistryInfo))
	}
}

func (c *Client) do(kind RequestKind, op []byte) ([]byte, error) {
	c.ensureHandler()

	c.mu.Lock()
	c.counter++
	req := ClientRequest{
		Kind:    kind,
		Client:  c.cfg.ID,
		Counter: c.counter,
		Op:      op,
	}
	if kind != KindWeakRead {
		// Weak reads are MAC-authenticated only; everything that can
		// reach the agreement group carries the client signature the
		// protocol verifies (A-Validity).
		req.Sig = c.cfg.Suite.Sign(crypto.DomainClientRequest, req.SigPayload())
	}
	group := c.group.Clone()
	wait := &replyWait{
		counter: req.Counter,
		replies: quorum.New[uint64, string, struct{}](quorum.Count(group.F+1), len(group.Members)),
		done:    make(chan []byte, 1),
	}
	c.waiting = wait
	c.mu.Unlock()

	frame := clientRegistry.EncodeFrame(tagRequest, &req)
	deadline := time.Now().Add(c.cfg.Deadline)
	interval := c.cfg.Retry
	for {
		// Broadcast to the (current) group; the group can change
		// between retries via SwitchGroup.
		c.mu.Lock()
		group = c.group.Clone()
		c.mu.Unlock()
		for _, replica := range group.Members {
			env := sealClientFrame(c.cfg.Suite, crypto.DomainClientRequest, frame, replica)
			c.cfg.Node.Send(replica, clientStream(group.ID), env)
		}

		retry := time.NewTimer(jitterRetry(interval, rand.Float64))
		select {
		case result := <-wait.done:
			retry.Stop()
			return result, nil
		case <-retry.C:
			if time.Now().After(deadline) {
				c.mu.Lock()
				c.waiting = nil
				c.mu.Unlock()
				return nil, fmt.Errorf("%w: %s counter %d", ErrTimeout, kind, req.Counter)
			}
			interval = nextRetryInterval(interval, c.cfg.RetryMax)
		}
	}
}

// nextRetryInterval doubles a retry interval, saturating at max: the
// re-broadcast cadence backs off an overloaded or healing cluster
// instead of hammering it at a fixed rate, but never disappears
// entirely.
func nextRetryInterval(cur, max time.Duration) time.Duration {
	next := 2 * cur
	if next > max {
		next = max
	}
	return next
}

// jitterRetry spreads one retry wait uniformly across ±20% of the
// interval, so a fleet of clients that timed out together does not
// re-broadcast in lockstep (a retry storm is exactly what a recovering
// cluster cannot absorb). rnd is injected for tests.
func jitterRetry(interval time.Duration, rnd func() float64) time.Duration {
	return time.Duration(float64(interval) * (0.8 + 0.4*rnd()))
}

// applyReply collects replica replies; fe+1 matching results complete
// the pending operation (lines 17–24 of Figure 15). It runs on the
// sender's delivery goroutine after the envelope verified.
func (c *Client) applyReply(from ids.NodeID, reply *Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replyHook != nil {
		c.replyHook(from, reply)
	}
	wait := c.waiting
	if wait == nil || reply.Counter != wait.counter {
		return
	}
	if !c.group.Contains(from) {
		return // replies only count from the current group
	}
	result := string(reply.Result)
	if wait.replies.Add(wait.counter, from, result, struct{}{}) && wait.replies.Reached(wait.counter, result) {
		c.waiting = nil
		wait.done <- reply.Result
	}
}

// applyRegistryInfo forwards a verified registry reply to the pending
// query, if any.
func (c *Client) applyRegistryInfo(from ids.NodeID, info *RegistryInfo) {
	if !c.cfg.AgreementGroup.Contains(from) {
		return
	}
	c.mu.Lock()
	votes := c.registryVotes
	c.mu.Unlock()
	if votes == nil {
		return
	}
	select {
	case votes <- registryVote{from: from, info: *info}:
	default: // query already satisfied or abandoned
	}
}

// QueryRegistry asks the agreement group for the execution-replica
// registry, accepting the first view confirmed by fa+1 replicas.
func (c *Client) QueryRegistry() (RegistryInfo, error) {
	if len(c.cfg.AgreementGroup.Members) == 0 {
		return RegistryInfo{}, errors.New("core: no agreement group configured")
	}
	c.ensureHandler()

	votes := make(chan registryVote, len(c.cfg.AgreementGroup.Members))
	c.mu.Lock()
	c.registryVotes = votes
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.registryVotes = nil
		c.mu.Unlock()
	}()

	query := RegistryQuery{Client: c.cfg.ID}
	frame := clientRegistry.EncodeFrame(tagRegistryQuery, &query)
	for _, replica := range c.cfg.AgreementGroup.Members {
		env := sealClientFrame(c.cfg.Suite, crypto.DomainClientRequest, frame, replica)
		c.cfg.Node.Send(replica, clientStream(c.cfg.AgreementGroup.ID), env)
	}

	// fa+1 *distinct* replicas must report identical contents: a single
	// faulty replica resending a forged view must never reach quorum.
	group := c.cfg.AgreementGroup
	replies := quorum.New[int, string, struct{}](quorum.Count(group.F+1), len(group.Members))
	deadline := time.After(c.cfg.Deadline)
	for {
		select {
		case v := <-votes:
			key := string(wire.Encode(&RegistryInfo{Entries: v.info.Entries})) // ignore Seq for matching
			if replies.Add(0, v.from, key, struct{}{}) && replies.Reached(0, key) {
				return v.info, nil
			}
		case <-deadline:
			return RegistryInfo{}, fmt.Errorf("%w: registry query", ErrTimeout)
		}
	}
}
