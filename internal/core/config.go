package core

import (
	"errors"
	"fmt"
	"time"

	"spider/internal/consensus/pbft"
	"spider/internal/crypto"
	"spider/internal/ids"
	"spider/internal/irmc"
	"spider/internal/irmc/rc"
	"spider/internal/irmc/sc"
	"spider/internal/stats"
	"spider/internal/storage"
	"spider/internal/transport"
)

// ChannelKind selects the IRMC implementation for a deployment
// (Section 4: IRMC-RC or IRMC-SC).
type ChannelKind int

// Channel kinds.
const (
	ChannelRC ChannelKind = iota // receiver-side collection (default)
	ChannelSC                    // sender-side collection
)

// String names the kind.
func (k ChannelKind) String() string {
	if k == ChannelSC {
		return "irmc-sc"
	}
	return "irmc-rc"
}

// MarshalText and UnmarshalText write the channel by its name in configs.
func (k ChannelKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *ChannelKind) UnmarshalText(b []byte) error {
	for *k = ChannelRC; *k <= ChannelSC; *k++ {
		if k.String() == string(b) {
			return nil
		}
	}
	return fmt.Errorf("core: unknown channel %q", b)
}

// Protocol parameters (Section 3.4). They are constants: the liveness
// rules tying them together are checked by the compiler below.
const (
	// executionCheckpointInterval is ke. Moderate checkpoint intervals
	// keep a joining group's catch-up short: it needs a checkpoint
	// covering its join point before it can execute (Section 3.6).
	executionCheckpointInterval = 16
	// agreementCheckpointInterval is ka.
	agreementCheckpointInterval = 16
	// commitChannelCapacity is the commit subchannel capacity |cE,0|.
	commitChannelCapacity = 4 * executionCheckpointInterval
	// agreementWindow is AG-WIN.
	agreementWindow = 4 * agreementCheckpointInterval
	// consensusBatch caps payloads per consensus instance. The whole
	// batch travels the commit data plane as one unit: one
	// commit-channel position, one Send per execution group. An idle
	// PBFT leader proposes at once and a busy one takes what queued
	// behind its in-flight instances, so batches follow the load up to
	// this cap and the cap costs no latency at trickle load.
	consensusBatch = 16
	// requestChannelCapacity is the per-client request subchannel
	// capacity; the paper uses 2 (|rE,c| = 2).
	requestChannelCapacity = 2
)

// The liveness rules of Section 3.4, as compile-time checks: a negative
// difference overflows uint, so a broken combination does not build.
const (
	// The execution checkpoint interval must not exceed the commit
	// channel's capacity.
	_ uint = commitChannelCapacity - executionCheckpointInterval
	// AG-WIN must cover one agreement checkpoint interval.
	_ uint = agreementWindow - agreementCheckpointInterval
	// Deliver paces on a batch's first sequence number, so a batch may
	// overshoot winHi by consensusBatch-1; a batch within AG-WIN keeps
	// that overshoot below one window.
	_ uint = agreementWindow - consensusBatch
)

// Streams derive every channel's transport stream from group ids so
// all parties agree without coordination.
func requestStream(execGroup ids.GroupID) transport.Stream {
	return transport.MakeStream(transport.KindRequestCh, uint32(execGroup))
}

func commitStream(execGroup ids.GroupID) transport.Stream {
	return transport.MakeStream(transport.KindCommitCh, uint32(execGroup))
}

func clientStream(group ids.GroupID) transport.Stream {
	return transport.MakeStream(transport.KindClient, uint32(group))
}

// replyStream is the client-side inbox for replies.
func replyStream() transport.Stream {
	return transport.MakeStream(transport.KindClient, 0)
}

// checkpointStream is shared by all groups; cross-group state fetches
// (Section 3.5) rely on every replica listening on the same stream,
// with group separation enforced cryptographically inside the messages.
func checkpointStream() transport.Stream {
	return transport.MakeStream(transport.KindCheckpoint, 0)
}

func pbftStream(group ids.GroupID) transport.Stream {
	return transport.MakeStream(transport.KindPBFT, uint32(group))
}

// newChannelSender builds an IRMC sender endpoint of the configured
// kind.
func newChannelSender(kind ChannelKind, cfg irmc.Config) (irmc.Sender, error) {
	if kind == ChannelSC {
		return sc.NewSender(cfg)
	}
	return rc.NewSender(cfg)
}

// newChannelReceiver builds an IRMC receiver endpoint of the
// configured kind.
func newChannelReceiver(kind ChannelKind, cfg irmc.Config) (irmc.Receiver, error) {
	if kind == ChannelSC {
		return sc.NewReceiver(cfg)
	}
	return rc.NewReceiver(cfg)
}

// ExecutionConfig parameterizes one execution replica.
type ExecutionConfig struct {
	// Group is the replica's execution group (2fe+1 members).
	Group ids.Group
	// AgreementGroup is the deployment's agreement group.
	AgreementGroup ids.Group
	// PeerGroups are other execution groups this replica may fetch
	// checkpoints from (Section 3.5); extendable at runtime.
	PeerGroups []ids.Group
	// Suite, Node: identity and transport.
	Suite crypto.Suite
	Node  transport.Node
	// App is the hosted application instance (not shared).
	App Application
	// Channel selects the IRMC implementation.
	Channel ChannelKind
	// Store, when set, persists execution checkpoints and the
	// post-checkpoint batch suffix write-behind, and rehydrates the
	// replica from disk at construction instead of a cold full-state
	// Fetch. The replica takes ownership and closes it on Stop.
	Store storage.Store
}

// Application is re-exported so the public API does not leak internal
// paths; it matches internal/app.Application.
type Application interface {
	Execute(op []byte) []byte
	ExecuteRead(op []byte) []byte
	Snapshot() []byte
	Restore(snapshot []byte) error
}

func (c *ExecutionConfig) validate() error {
	if len(c.Group.Members) < 2*c.Group.F+1 {
		return fmt.Errorf("core: execution group size %d < 2f+1", len(c.Group.Members))
	}
	if len(c.AgreementGroup.Members) == 0 {
		return errors.New("core: agreement group required")
	}
	if c.Suite == nil || c.Node == nil || c.App == nil {
		return errors.New("core: suite, node and app required")
	}
	if !c.Group.Contains(c.Suite.Node()) {
		return fmt.Errorf("core: replica %v not in group %v", c.Suite.Node(), c.Group.ID)
	}
	return nil
}

// AgreementConfig parameterizes one agreement replica.
type AgreementConfig struct {
	// Group is the agreement group (3fa+1 members for PBFT).
	Group ids.Group
	// ExecGroups are the initial execution groups with their registry
	// annotations.
	ExecGroups []GroupEntry
	// AdminClients may issue reconfiguration commands.
	AdminClients []ids.ClientID
	// Suite, Node: identity and transport.
	Suite crypto.Suite
	Node  transport.Node
	// Channel selects the IRMC implementation.
	Channel ChannelKind
	// SlackGroups is z: how many trailing execution groups the
	// agreement group does not wait for (default 0).
	SlackGroups int
	// ConsensusAuth selects how PBFT authenticates its normal-case
	// messages. The zero value is the paper's agreement-cluster
	// optimisation: MAC vectors among the agreement replicas (whose
	// pairwise keys all suites of a deployment share), signatures for
	// view changes, checkpoints and certificates. Set
	// pbft.AuthSignatures for the fully signed variant.
	ConsensusAuth pbft.AuthMode
	// CommitStats, when set, accumulates commit-channel byte counters
	// across fanOut and the channel senders. May be shared.
	CommitStats *CommitStats
	// BatchOccupancy, when set, records the requests per consensus
	// batch this replica proposes while leading.
	BatchOccupancy *stats.Occupancy
	// SendOccupancy, when set, records the requests per commit-channel
	// Send, making underfilled batches visible in harness output.
	SendOccupancy *stats.Occupancy
	// Store, when set, persists agreement checkpoints, the batch
	// history suffix and the installed PBFT view write-behind, and
	// rehydrates the replica from disk at construction. The replica
	// takes ownership and closes it on Stop.
	Store storage.Store
}

func (c *AgreementConfig) validate() error {
	if len(c.Group.Members) < 3*c.Group.F+1 {
		return fmt.Errorf("core: agreement group size %d < 3f+1", len(c.Group.Members))
	}
	if c.Suite == nil || c.Node == nil {
		return errors.New("core: suite and node required")
	}
	if !c.Group.Contains(c.Suite.Node()) {
		return fmt.Errorf("core: replica %v not in group %v", c.Suite.Node(), c.Group.ID)
	}
	if c.SlackGroups < 0 {
		return errors.New("core: negative slack")
	}
	return nil
}

// ClientConfig parameterizes a client handle.
type ClientConfig struct {
	// ID is the client identity (shares the node id space).
	ID ids.ClientID
	// Group is the execution group the client talks to.
	Group ids.Group
	// AgreementGroup enables registry queries; optional.
	AgreementGroup ids.Group
	// Suite, Node: identity and transport.
	Suite crypto.Suite
	Node  transport.Node
	// Retry is the base of the resend schedule (t_retry, default
	// 500ms): capped exponential backoff with ±20% jitter. The first
	// retry fires after ~Retry, each subsequent one doubles the
	// interval up to RetryMax. Re-broadcasts from a fleet of timed-out
	// clients then thin out and desynchronize instead of storming an
	// overloaded or healing cluster in lockstep.
	Retry time.Duration
	// RetryMax caps the backed-off retry interval (default 8× Retry).
	RetryMax time.Duration
	// Deadline bounds one operation end to end (default 30s).
	Deadline time.Duration
	// CounterStart seeds the request counter. A client identity must
	// never reuse counters across sessions (replicas deduplicate by
	// counter); short-lived processes pass a persisted or time-derived
	// value here.
	CounterStart uint64
}

func (c *ClientConfig) validate() error {
	if !c.ID.Valid() {
		return errors.New("core: client id required")
	}
	if len(c.Group.Members) < 2*c.Group.F+1 {
		return fmt.Errorf("core: client group size %d < 2f+1", len(c.Group.Members))
	}
	if c.Suite == nil || c.Node == nil {
		return errors.New("core: suite and node required")
	}
	return nil
}

func (c *ClientConfig) applyDefaults() {
	if c.Retry <= 0 {
		c.Retry = 500 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 8 * c.Retry
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
}
