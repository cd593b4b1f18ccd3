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

// Tunables bundles the protocol parameters shared by the replica
// roles. The zero value selects the defaults listed per field.
type Tunables struct {
	// RequestChannelCapacity is the per-client request subchannel
	// capacity; the paper uses 2 (|rE,c| = 2).
	RequestChannelCapacity int
	// CommitChannelCapacity is the commit subchannel capacity |cE,0|;
	// it must be at least the execution checkpoint interval
	// (default 128).
	CommitChannelCapacity int
	// ExecutionCheckpointInterval is ke (default 64).
	ExecutionCheckpointInterval int
	// AgreementCheckpointInterval is ka (default 64).
	AgreementCheckpointInterval int
	// AgreementWindow is AG-WIN, at least ka (default 128).
	AgreementWindow int
	// SlackGroups is z: how many trailing execution groups the
	// agreement group does not wait for (default 0).
	SlackGroups int
	// Channel selects the IRMC implementation.
	Channel ChannelKind
	// ChannelProgressMS / ChannelCollectorMS are the channels'
	// irmc.Config.ProgressIntervalMS and CollectorTimeoutMS (0: that
	// package's defaults, 50 ms and 1 s).
	ChannelProgressMS  int
	ChannelCollectorMS int
	// PayloadCacheEntries bounds the execution replicas'
	// content-addressed payload cache (commit-channel dedup;
	// default 4096 entries). Requests resolve within one wide-area
	// round trip of being forwarded, so a small cache suffices; a miss
	// only costs a checkpoint fetch, never safety.
	PayloadCacheEntries int
}

// defaultPayloadCacheEntries bounds the dedup payload cache when the
// tunable is unset.
const defaultPayloadCacheEntries = 4096

func (t *Tunables) applyDefaults() {
	if t.RequestChannelCapacity <= 0 {
		t.RequestChannelCapacity = 2
	}
	if t.ExecutionCheckpointInterval <= 0 {
		t.ExecutionCheckpointInterval = 64
	}
	if t.AgreementCheckpointInterval <= 0 {
		t.AgreementCheckpointInterval = 64
	}
	if t.CommitChannelCapacity <= 0 {
		t.CommitChannelCapacity = 2 * t.ExecutionCheckpointInterval
	}
	if t.AgreementWindow <= 0 {
		t.AgreementWindow = 2 * t.AgreementCheckpointInterval
	}
	if t.PayloadCacheEntries <= 0 {
		t.PayloadCacheEntries = defaultPayloadCacheEntries
	}
}

func (t *Tunables) validate() error {
	if t.CommitChannelCapacity < t.ExecutionCheckpointInterval {
		// Liveness condition of Section 3.4: the checkpoint interval
		// must be smaller than the input channel capacity.
		return fmt.Errorf("core: commit capacity %d < execution checkpoint interval %d breaks liveness",
			t.CommitChannelCapacity, t.ExecutionCheckpointInterval)
	}
	if t.AgreementWindow < t.AgreementCheckpointInterval {
		return fmt.Errorf("core: AG-WIN %d < ka %d breaks agreement liveness",
			t.AgreementWindow, t.AgreementCheckpointInterval)
	}
	if t.SlackGroups < 0 {
		return errors.New("core: negative slack")
	}
	return nil
}

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

// checkpointStream is shared by all groups of one shard; cross-group
// state fetches (Section 3.5) rely on every replica of the shard
// listening on the same stream, with group separation enforced
// cryptographically inside the messages. Shards checkpoint
// independently, so each gets its own stream; shard 0 uses the stream
// id an unsharded deployment always used.
func checkpointStream(shard ShardID) transport.Stream {
	return transport.MakeStream(transport.KindCheckpoint, uint32(shard))
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
	// Tunables: protocol parameters.
	Tunables Tunables
	// Meter, when set, accounts this replica's processing time.
	Meter *stats.CPUMeter
	// CommitDedup must match the agreement group's setting: with dedup
	// on, forwarded payloads are hashed into the content-addressed
	// cache that resolves the commit channel's by-digest references;
	// with dedup off no references arrive, so the cache (and its
	// per-request SHA-256) is skipped entirely.
	CommitDedup DedupMode
	// CommitStats, when set, accumulates this replica's payload-cache
	// hit/miss counts (commit-channel dedup). May be shared.
	CommitStats *CommitStats
	// Pipeline runs client-signature checks and channel verification
	// off the transport goroutines; nil selects the process-wide
	// default pool.
	Pipeline *crypto.Pipeline
	// Shard is this replica's agreement session in a keyspace-sharded
	// deployment; it selects the shard-local checkpoint stream. The
	// zero value is the single (or first) shard, matching unsharded
	// behavior exactly.
	Shard ShardID
	// ShardMap partitions the keyspace; with more than one shard the
	// replica drops forwarded requests whose key routes to a different
	// shard (admin operations are unkeyed and exempt), so a faulty
	// client cannot plant keys in a foreign shard's partition.
	ShardMap ShardMap
	// KeyOf extracts the routing key of an operation (false for
	// unkeyed payloads, which route to shard 0). Required when
	// ShardMap has more than one shard.
	KeyOf func(op []byte) (string, bool)
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
	if err := validateShard(c.Shard, c.ShardMap); err != nil {
		return err
	}
	if c.ShardMap.Shards > 1 && c.KeyOf == nil {
		return errors.New("core: sharded execution replica requires KeyOf")
	}
	return c.Tunables.validate()
}

// validateShard checks a replica's shard index against its map.
func validateShard(s ShardID, m ShardMap) error {
	if s < 0 || s >= MaxShards {
		return fmt.Errorf("core: shard %d outside [0, %d)", s, MaxShards)
	}
	if m.Shards > MaxShards {
		return fmt.Errorf("core: %d shards exceed the maximum of %d", m.Shards, MaxShards)
	}
	if m.Shards > 1 && int(s) >= m.Shards {
		return fmt.Errorf("core: shard %d outside the %d-shard map", s, m.Shards)
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
	// Tunables: protocol parameters.
	Tunables Tunables
	// ConsensusTimeout is PBFT's request timeout (defaults to 1s; the
	// agreement group sits in one region, so it can be tight).
	ConsensusTimeout time.Duration
	// ConsensusBatch caps payloads per consensus instance (default 16,
	// clamped to AgreementWindow). The whole batch travels the commit
	// data plane as one unit — one commit-channel position, one signed
	// Send per execution group — so this knob trades latency for
	// end-to-end throughput as a first-class workload dimension.
	// ConsensusBatch = 1 restores request-at-a-time semantics.
	ConsensusBatch int
	// AdaptiveBatching closes the loop on the batching knobs: PBFT's
	// leader swings its effective batch size within [1,ConsensusBatch]
	// and the flush delay toward zero at trickle load, driven by
	// measured occupancy and queue depth (internal/tune). Off by
	// default — the static ConsensusBatch point stays byte-for-byte
	// reachable.
	AdaptiveBatching bool
	// AdaptiveWindows auto-sizes the commit channels' effective send
	// windows from their measured drain rate: blocked sends grow a
	// window toward Tunables.CommitChannelCapacity, sustained slack
	// shrinks it toward the execution checkpoint interval, bounding
	// in-flight memory at low load. Sender-local (no wire change), on
	// either channel implementation. Off by default.
	AdaptiveWindows bool
	// ArrivalRate, when set with AdaptiveBatching, records every
	// admitted consensus payload so deployments can read the windowed
	// offered load (req/s) the batch controller saw.
	ArrivalRate *stats.Rate
	// SuspectSlowLeader enables PBFT's gray-failure defense: every
	// agreement replica monitors the leader's delivery throughput and
	// latency against the median of recent healthy measurements and
	// proactively rotates a leader that is slow but not silent (see
	// pbft.Config.SuspectSlowLeader). Rotation still requires the
	// normal 2f+1 view-change quorum. Off by default — the classic
	// silence-timeout behavior stays byte-for-byte unchanged.
	SuspectSlowLeader bool
	// SlowLeaderInterval overrides the monitor's evaluation interval
	// (default ConsensusTimeout/8, floored at 10ms).
	SlowLeaderInterval time.Duration
	// SlowLeaderCooldown bounds the proactive rotation rate per
	// replica (default 2× ConsensusTimeout).
	SlowLeaderCooldown time.Duration
	// ConsensusAuth selects how PBFT authenticates its normal-case
	// messages. The zero value is the paper's agreement-cluster
	// optimisation: MAC vectors among the agreement replicas (whose
	// pairwise keys all suites of a deployment share), signatures for
	// view changes, checkpoints and certificates. Set
	// pbft.AuthSignatures for the fully signed variant.
	ConsensusAuth pbft.AuthMode
	// CommitDedup selects whether fanOut substitutes by-digest
	// references for request content the destination group forwarded
	// (default on). All agreement replicas of a deployment must agree:
	// the substitution is part of the commit-channel payload bytes the
	// IRMC fs+1 matching rule compares.
	CommitDedup DedupMode
	// CommitStats, when set, accumulates commit-channel byte and dedup
	// counters across fanOut and the channel senders. May be shared.
	CommitStats *CommitStats
	// Meter, when set, accounts this replica's processing time.
	Meter *stats.CPUMeter
	// BatchOccupancy, when set, records the requests per consensus
	// batch this replica proposes while leading.
	BatchOccupancy *stats.Occupancy
	// SendOccupancy, when set, records the requests per commit-channel
	// Send, making underfilled batches visible in harness output.
	SendOccupancy *stats.Occupancy
	// Pipeline runs consensus and channel crypto off the transport
	// goroutines and the replica locks; nil selects the process-wide
	// default pool.
	Pipeline *crypto.Pipeline
	// Shard is this replica's agreement session in a keyspace-sharded
	// deployment; it selects the shard-local checkpoint stream. All
	// other per-shard separation (PBFT stream, IRMC channels) derives
	// from the shard-qualified Group.ID. The zero value matches
	// unsharded behavior exactly.
	Shard ShardID
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
	if err := validateShard(c.Shard, ShardMap{}); err != nil {
		return err
	}
	return c.Tunables.validate()
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
	// Pipeline runs reply MAC verification off the inbox stream handler
	// on per-replica lanes; nil selects the process-wide default pool.
	Pipeline *crypto.Pipeline
	// ShardGroups, in a keyspace-sharded deployment, lists the
	// client's per-shard execution groups indexed by ShardID (usually
	// the shard variants of its region's group). When set, every keyed
	// operation routes to the group owning its key; Group remains the
	// default for admin and unrouteable traffic. Empty means unsharded
	// (current behavior).
	ShardGroups []ids.Group
	// ShardMap partitions the keyspace; defaulted to len(ShardGroups)
	// shards when unset.
	ShardMap ShardMap
	// KeyOf extracts the routing key of an operation (false for
	// unkeyed payloads, which route to shard 0). Required when
	// ShardGroups is set.
	KeyOf func(op []byte) (string, bool)
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
	if len(c.ShardGroups) > 0 {
		if len(c.ShardGroups) != c.ShardMap.Shards {
			return fmt.Errorf("core: %d shard groups for a %d-shard map", len(c.ShardGroups), c.ShardMap.Shards)
		}
		if c.ShardMap.Shards > MaxShards {
			return fmt.Errorf("core: %d shards exceed the maximum of %d", c.ShardMap.Shards, MaxShards)
		}
		if c.KeyOf == nil {
			return errors.New("core: sharded client requires KeyOf")
		}
		for _, g := range c.ShardGroups {
			if len(g.Members) < 2*g.F+1 {
				return fmt.Errorf("core: shard group %v size %d < 2f+1", g.ID, len(g.Members))
			}
		}
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
	if len(c.ShardGroups) > 0 && c.ShardMap.Shards == 0 {
		c.ShardMap.Shards = len(c.ShardGroups)
	}
}
