// Package bftgeo implements the paper's "BFT" baseline (Section 5): a
// single PBFT group whose 3f+1 replicas are spread across geographic
// regions, one per region, each hosting the application. Clients
// submit requests to every replica and accept a result after f+1
// matching replies. The entire multi-phase consensus protocol runs
// over wide-area links — precisely the cost Spider avoids.
//
// The package also backs the "BFT-WV" baseline: configured with a
// WHEAT weighted-voting quorum policy and 3f+1+Δ replicas it becomes
// the weighted variant evaluated in Figure 10 (see the wv package).
package bftgeo

import (
	"errors"
	"fmt"
	"sync"

	"spider/internal/consensus"
	"spider/internal/consensus/pbft"
	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/quorum"
	"spider/internal/transport"
	"spider/internal/wire"
)

// Config parameterizes one baseline replica.
type Config struct {
	// Group is the replica group (3f+1, or 3f+1+Δ with a weighted
	// policy).
	Group ids.Group
	// Suite, Node: identity and transport.
	Suite crypto.Suite
	Node  transport.Node
	// App is the hosted application.
	App core.Application
	// Policy optionally overrides PBFT quorums (weighted voting).
	Policy quorum.Rule
	// Consensus tunables; zero values use pbft defaults.
	Consensus pbft.Config
}

func (c *Config) validate() error {
	if c.Suite == nil || c.Node == nil || c.App == nil {
		return errors.New("bftgeo: suite, node and app required")
	}
	if !c.Group.Contains(c.Suite.Node()) {
		return fmt.Errorf("bftgeo: replica %v not in group", c.Suite.Node())
	}
	return nil
}

// Replica is one baseline replica: a PBFT member plus the application
// and client handling.
type Replica struct {
	cfg Config
	me  ids.NodeID

	mu      sync.Mutex
	replies map[ids.ClientID]cachedReply
	ag      *pbft.Replica
	stopped bool
}

type cachedReply struct {
	counter uint64
	result  []byte
}

// New creates a baseline replica; call Start to begin.
func New(cfg Config) (*Replica, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:     cfg,
		me:      cfg.Suite.Node(),
		replies: make(map[ids.ClientID]cachedReply),
	}
	pcfg := cfg.Consensus
	pcfg.Group = cfg.Group
	pcfg.Suite = cfg.Suite
	pcfg.Node = cfg.Node
	pcfg.Stream = transport.MakeStream(transport.KindPBFT, uint32(cfg.Group.ID))
	pcfg.Deliver = r.deliver
	pcfg.Validate = r.validate
	pcfg.Policy = cfg.Policy
	ag, err := pbft.New(pcfg)
	if err != nil {
		return nil, err
	}
	r.ag = ag
	return r, nil
}

// Start launches consensus and registers the client handler.
func (r *Replica) Start() {
	r.cfg.Node.Handle(transport.MakeStream(transport.KindClient, uint32(r.cfg.Group.ID)), r.onClientFrame)
	r.ag.Start()
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
	r.ag.Stop()
}

func (r *Replica) validate(payload []byte) error {
	var req core.ClientRequest
	if err := wire.Decode(payload, &req); err != nil {
		return err
	}
	return r.cfg.Suite.Verify(req.Client.Node(), crypto.DomainClientRequest, req.SigPayload(), req.Sig)
}

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
		r.reply(req.Client, req.Counter, result)
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
				r.reply(req.Client, req.Counter, cached.result)
			}
			return
		}
		if err := r.cfg.Suite.Verify(req.Client.Node(), crypto.DomainClientRequest, req.SigPayload(), req.Sig); err != nil {
			return
		}
		r.ag.Order(wire.Encode(req))
	}
}

// deliver executes ordered batches request by request (the baseline
// has no downstream data plane to hand whole batches to).
func (r *Replica) deliver(b consensus.Batch) {
	for _, payload := range b.Payloads {
		r.deliverOne(payload)
	}
}

func (r *Replica) deliverOne(payload []byte) {
	var req core.ClientRequest
	if err := wire.Decode(payload, &req); err != nil {
		return
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	if cached, ok := r.replies[req.Client]; ok && cached.counter >= req.Counter {
		r.mu.Unlock()
		return // at-most-once
	}
	var result []byte
	if req.Kind == core.KindStrongRead {
		result = r.cfg.App.ExecuteRead(req.Op)
	} else {
		result = r.cfg.App.Execute(req.Op)
	}
	r.replies[req.Client] = cachedReply{counter: req.Counter, result: result}
	r.mu.Unlock()
	r.reply(req.Client, req.Counter, result)
}

func (r *Replica) reply(client ids.ClientID, counter uint64, result []byte) {
	core.SendReply(r.cfg.Suite, r.cfg.Node, client, counter, result)
}
